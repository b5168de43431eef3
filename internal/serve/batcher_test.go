package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sarmany/internal/bench"
	"sarmany/internal/sweep"
)

// collectExec returns an ExecFunc that records every batch it receives
// and then delivers a trivial success to each request: a test that has
// waited for a result finds its batch recorded.
func collectExec(mu *sync.Mutex, batches *[][]string) ExecFunc {
	return func(batch []*Request) {
		ids := make([]string, len(batch))
		for i, r := range batch {
			ids[i] = r.ID
		}
		mu.Lock()
		*batches = append(*batches, ids)
		mu.Unlock()
		for _, r := range batch {
			r.deliver(sweep.JobResult{Job: r.Job, Result: bench.Result{Name: r.ID}})
		}
	}
}

// wait reads r's delivered result, or gives up when ctx is done: it
// returns the job's error, or ctx's.
func wait(ctx context.Context, r *Request) error {
	select {
	case res := <-r.done:
		return res.Err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestBatcherSizeFlush: the batch flushes as soon as BatchSize requests
// are pending, without waiting for MaxWait.
func TestBatcherSizeFlush(t *testing.T) {
	var mu sync.Mutex
	var batches [][]string
	b := NewBatcher(BatcherOptions{
		BatchSize: 3, MaxWait: time.Hour, // a max-wait flush would time the test out
		Exec: collectExec(&mu, &batches),
	})
	var reqs []*Request
	for i := 0; i < 3; i++ {
		r, err := b.Submit(context.Background(), string(rune('a'+i)), sweep.Job{})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, r := range reqs {
		if err := wait(ctx, r); err != nil {
			t.Fatalf("wait %s: %v", r.ID, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("batches = %v, want one batch of 3", batches)
	}
}

// TestBatcherMaxWaitPartialFlush is the satellite edge case: a partial
// batch (fewer than BatchSize requests) must flush MaxWait after its
// first request arrives rather than wait indefinitely.
func TestBatcherMaxWaitPartialFlush(t *testing.T) {
	var mu sync.Mutex
	var batches [][]string
	b := NewBatcher(BatcherOptions{
		BatchSize: 100, MaxWait: 20 * time.Millisecond,
		Exec: collectExec(&mu, &batches),
	})
	start := time.Now()
	r, err := b.Submit(context.Background(), "lonely", sweep.Job{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := wait(ctx, r); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("partial batch flushed after %v, before MaxWait", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("batches = %v, want one partial batch of 1", batches)
	}
}

// TestBatcherQueuedCancellation is the satellite edge case: cancelling a
// queued request's context fails it at flush time without executing it,
// and the result channel resolves (no leaked waiter) — a second waiter
// still gets the buffered outcome.
func TestBatcherQueuedCancellation(t *testing.T) {
	var executed atomic.Int64
	b := NewBatcher(BatcherOptions{
		BatchSize: 2, MaxWait: 10 * time.Millisecond,
		Exec: func(batch []*Request) {
			for _, r := range batch {
				executed.Add(1)
				r.deliver(sweep.JobResult{Job: r.Job})
			}
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	r, err := b.Submit(ctx, "doomed", sweep.Job{})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // still queued: MaxWait has not elapsed

	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := wait(wctx, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait err = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got != 0 {
		t.Errorf("canceled request executed %d times", got)
	}
	// The batcher keeps serving after the cancellation.
	ok, err := b.Submit(context.Background(), "alive", sweep.Job{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(wctx, ok); err != nil {
		t.Fatalf("post-cancel submit: %v", err)
	}
}

// TestBatcherDrainWithInflight is the satellite edge case: Close must
// flush the pending partial batch, wait for in-flight batches to
// deliver, and reject later submissions with a typed DrainingError.
func TestBatcherDrainWithInflight(t *testing.T) {
	release := make(chan struct{})
	var delivered atomic.Int64
	b := NewBatcher(BatcherOptions{
		BatchSize: 1, MaxWait: time.Hour,
		Exec: func(batch []*Request) {
			<-release // hold the batch in flight until the test says go
			for _, r := range batch {
				r.deliver(sweep.JobResult{Job: r.Job})
				delivered.Add(1)
			}
		},
	})
	// BatchSize 1: this request is in flight (blocked on release) now.
	if _, err := b.Submit(context.Background(), "inflight", sweep.Job{}); err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- b.Close(ctx)
	}()

	// Close must not return while the batch is held in flight.
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a batch still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if d := delivered.Load(); d != 0 {
		t.Fatalf("delivered = %d before release", d)
	}

	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := delivered.Load(); d != 1 {
		t.Errorf("delivered = %d after drain, want 1", d)
	}

	var drain *DrainingError
	if _, err := b.Submit(context.Background(), "late", sweep.Job{}); !errors.As(err, &drain) {
		t.Errorf("post-drain submit err = %v, want *DrainingError", err)
	}
}

// TestBatcherQueueFullTyped: the queue bound rejects with a typed
// QueueFullError carrying depth, limit and a positive Retry-After.
func TestBatcherQueueFullTyped(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	b := NewBatcher(BatcherOptions{
		BatchSize: 1, MaxWait: time.Hour, QueueLimit: 2,
		RetryAfter: func() time.Duration { return 7 * time.Second },
		Exec: func(batch []*Request) {
			<-release
			for _, r := range batch {
				r.deliver(sweep.JobResult{Job: r.Job})
			}
		},
	})
	for i := 0; i < 2; i++ {
		if _, err := b.Submit(context.Background(), string(rune('a'+i)), sweep.Job{}); err != nil {
			t.Fatal(err)
		}
	}
	var full *QueueFullError
	_, err := b.Submit(context.Background(), "overflow", sweep.Job{})
	if !errors.As(err, &full) {
		t.Fatalf("err = %v, want *QueueFullError", err)
	}
	if full.Limit != 2 || full.Depth < 2 || full.RetryAfter != 7*time.Second {
		t.Errorf("QueueFullError = %+v", full)
	}
}

// TestQuotaExhaustionTyped is the satellite edge case: an exhausted
// tenant budget returns a typed *QuotaError with a refill hint, while
// other tenants keep their own full buckets.
func TestQuotaExhaustionTyped(t *testing.T) {
	q := newQuotas(QuotaConfig{JobsPerSec: 2, Burst: 2})
	now := time.Unix(100, 0)
	for i := 0; i < 2; i++ {
		if err := q.admit("alpha", now); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	var qe *QuotaError
	err := q.admit("alpha", now)
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuotaError", err)
	}
	if qe.Tenant != "alpha" || qe.RetryAfter <= 0 || qe.RetryAfter > time.Second {
		t.Errorf("QuotaError = %+v (RetryAfter should be (0, 1s] at 2 jobs/s)", qe)
	}
	// A different tenant draws from its own bucket.
	if err := q.admit("beta", now); err != nil {
		t.Errorf("tenant beta rejected: %v", err)
	}
	// Refill: half a second restores one whole token at 2 jobs/s.
	if err := q.admit("alpha", now.Add(600*time.Millisecond)); err != nil {
		t.Errorf("alpha after refill: %v", err)
	}
}

// TestQuotaUnlimited: a zero config admits everything.
func TestQuotaUnlimited(t *testing.T) {
	q := newQuotas(QuotaConfig{})
	now := time.Unix(100, 0)
	for i := 0; i < 1000; i++ {
		if err := q.admit("anyone", now); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
}
