package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestRecord returns a queued record for id, as store.admit makes one.
func newTestRecord(id string) *record {
	return &record{info: JobInfo{ID: id, Status: StatusQueued}, done: make(chan struct{})}
}

// collectExec returns an exec function that records every batch it
// receives and then completes each record: a test that has waited for a
// record finds its batch recorded.
func collectExec(mu *sync.Mutex, batches *[][]string) func([]*record) {
	return func(batch []*record) {
		ids := make([]string, len(batch))
		for i, r := range batch {
			ids[i] = r.info.ID
		}
		mu.Lock()
		*batches = append(*batches, ids)
		mu.Unlock()
		for _, r := range batch {
			r.complete(nil, false, 0, "", "")
		}
	}
}

// wait blocks until r completes, or gives up when ctx is done: it
// returns the job's error, or ctx's.
func wait(ctx context.Context, r *record) error {
	select {
	case <-r.done:
		if info := r.snapshot(); info.Status != StatusDone {
			return fmt.Errorf("job %s %s: %s", info.ID, info.Status, info.Error)
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestBatcherSizeFlush: the batch flushes as soon as BatchSize records
// are pending, without waiting for MaxWait.
func TestBatcherSizeFlush(t *testing.T) {
	var mu sync.Mutex
	var batches [][]string
	b := newBatcher(batcherOptions{
		BatchSize: 3, MaxWait: time.Hour, // a max-wait flush would time the test out
		Exec: collectExec(&mu, &batches),
	})
	var recs []*record
	for i := 0; i < 3; i++ {
		r := newTestRecord(string(rune('a' + i)))
		if err := b.submit(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, r := range recs {
		if err := wait(ctx, r); err != nil {
			t.Fatalf("wait %s: %v", r.info.ID, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("batches = %v, want one batch of 3", batches)
	}
}

// TestBatcherMaxWaitPartialFlush is the satellite edge case: a partial
// batch (fewer than BatchSize records) must flush MaxWait after its
// first record arrives rather than wait indefinitely.
func TestBatcherMaxWaitPartialFlush(t *testing.T) {
	var mu sync.Mutex
	var batches [][]string
	b := newBatcher(batcherOptions{
		BatchSize: 100, MaxWait: 20 * time.Millisecond,
		Exec: collectExec(&mu, &batches),
	})
	start := time.Now()
	r := newTestRecord("lonely")
	if err := b.submit(r); err != nil {
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

// TestBatcherDrainWithInflight is the satellite edge case: drain must
// flush the pending partial batch, wait for in-flight batches to
// complete, and reject later submissions with a typed DrainingError.
func TestBatcherDrainWithInflight(t *testing.T) {
	release := make(chan struct{})
	var completed atomic.Int64
	b := newBatcher(batcherOptions{
		BatchSize: 1, MaxWait: time.Hour,
		Exec: func(batch []*record) {
			<-release // hold the batch in flight until the test says go
			for _, r := range batch {
				r.complete(nil, false, 0, "", "")
				completed.Add(1)
			}
		},
	})
	// BatchSize 1: this record is in flight (blocked on release) now.
	if err := b.submit(newTestRecord("inflight")); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- b.drain(ctx)
	}()

	// drain must not return while the batch is held in flight.
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a batch still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if d := completed.Load(); d != 0 {
		t.Fatalf("completed = %d before release", d)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := completed.Load(); d != 1 {
		t.Errorf("completed = %d after drain, want 1", d)
	}

	var drain *DrainingError
	if err := b.submit(newTestRecord("late")); !errors.As(err, &drain) {
		t.Errorf("post-drain submit err = %v, want *DrainingError", err)
	}
}

// TestBatcherQueueFullTyped: the queue bound rejects with a typed
// QueueFullError carrying depth, limit and a positive Retry-After.
func TestBatcherQueueFullTyped(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	b := newBatcher(batcherOptions{
		BatchSize: 1, MaxWait: time.Hour, QueueLimit: 2,
		RetryAfter: func() time.Duration { return 7 * time.Second },
		Exec: func(batch []*record) {
			<-release
			for _, r := range batch {
				r.complete(nil, false, 0, "", "")
			}
		},
	})
	for i := 0; i < 2; i++ {
		if err := b.submit(newTestRecord(string(rune('a' + i)))); err != nil {
			t.Fatal(err)
		}
	}
	var full *QueueFullError
	err := b.submit(newTestRecord("overflow"))
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
