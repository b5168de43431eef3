package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sarmany/internal/sweep"
)

// Request is one admitted job waiting for (or riding through) a batch.
// Its result arrives exactly once on an internal buffered channel, so a
// caller that stops waiting leaks nothing: the delivery never blocks and
// the channel is garbage once the Request is unreachable.
type Request struct {
	// ID is the job's content address (see Server job IDs).
	ID string
	// Job is the sweep job the batch executes.
	Job sweep.Job
	// ctx governs the request's execution: it carries the per-request
	// deadline and is honored both while queued (a canceled request is
	// failed at flush time without running) and while executing.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan sweep.JobResult // buffered 1: delivery never blocks
}

// Context returns the request's execution context.
func (r *Request) Context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// deliver hands the request its result. The buffered channel makes this
// non-blocking; a second delivery is dropped, so a request resolves at
// most once.
func (r *Request) deliver(res sweep.JobResult) {
	select {
	case r.done <- res:
	default:
	}
	if r.cancel != nil {
		r.cancel()
	}
}

// QueueFullError is the typed admission failure for a saturated batcher
// queue: the client should back off and retry after the hint.
type QueueFullError struct {
	// Depth is the queued+in-flight request count at rejection time.
	Depth int
	// Limit is the configured queue bound.
	Limit int
	// RetryAfter is the server's backoff hint.
	RetryAfter time.Duration
}

// Error describes the rejection with its depth, limit and retry hint.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: queue full (%d of %d requests pending), retry after %v",
		e.Depth, e.Limit, e.RetryAfter)
}

// DrainingError is the typed admission failure while the server drains:
// no new work is accepted, in-flight jobs are being flushed.
type DrainingError struct{}

// Error describes the rejection.
func (e *DrainingError) Error() string { return "serve: draining, not accepting jobs" }

// ExecFunc runs one flushed batch. It must deliver a result to every
// request in the batch (the batcher has already failed canceled ones).
type ExecFunc func(batch []*Request)

// BatcherOptions configures a Batcher.
type BatcherOptions struct {
	// BatchSize flushes a batch once this many requests are pending
	// (default 8).
	BatchSize int
	// MaxWait flushes a partial batch this long after its first request
	// arrived (default 25ms), bounding queueing latency at low load.
	MaxWait time.Duration
	// QueueLimit bounds queued+in-flight requests; Submit beyond it
	// returns a QueueFullError (default 256).
	QueueLimit int
	// RetryAfter supplies the backoff hint stamped into QueueFullError
	// (nil = a constant second).
	RetryAfter func() time.Duration
	// Exec runs each flushed batch. Required.
	Exec ExecFunc
}

// Batcher coalesces admitted requests into bounded batches: a batch
// flushes when it reaches BatchSize or MaxWait after its first request,
// whichever comes first. Flushed batches execute concurrently on Exec;
// the queue bound covers queued and executing requests together, which
// is what admission control pushes back on.
type Batcher struct {
	opt BatcherOptions

	mu       sync.Mutex
	pending  []*Request
	inflight int
	timer    *time.Timer
	gen      int // timer generation: a stale timer must not flush a newer batch
	closed   bool
	idle     chan struct{} // closed when closed && no pending && no inflight
	wg       sync.WaitGroup
}

// NewBatcher returns a batcher with defaults applied. Exec is required.
func NewBatcher(opt BatcherOptions) *Batcher {
	if opt.BatchSize <= 0 {
		opt.BatchSize = 8
	}
	if opt.MaxWait <= 0 {
		opt.MaxWait = 25 * time.Millisecond
	}
	if opt.QueueLimit <= 0 {
		opt.QueueLimit = 256
	}
	if opt.RetryAfter == nil {
		opt.RetryAfter = func() time.Duration { return time.Second }
	}
	if opt.Exec == nil {
		panic("serve: NewBatcher requires Exec")
	}
	return &Batcher{opt: opt, idle: make(chan struct{})}
}

// Depth returns the queued plus in-flight request count.
func (b *Batcher) Depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending) + b.inflight
}

// Submit admits one job. ctx is the request's execution context (carry
// the per-job deadline in it); cancellation while queued fails the
// request at flush time without running it. Typed errors report the
// admission decision: *DrainingError after Close, *QueueFullError at the
// queue bound.
func (b *Batcher) Submit(ctx context.Context, id string, job sweep.Job) (*Request, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, &DrainingError{}
	}
	if depth := len(b.pending) + b.inflight; depth >= b.opt.QueueLimit {
		b.mu.Unlock()
		return nil, &QueueFullError{Depth: depth, Limit: b.opt.QueueLimit, RetryAfter: b.opt.RetryAfter()}
	}
	rctx, cancel := context.WithCancel(ctx)
	req := &Request{ID: id, Job: job, ctx: rctx, cancel: cancel, done: make(chan sweep.JobResult, 1)}
	b.pending = append(b.pending, req)
	switch {
	case len(b.pending) >= b.opt.BatchSize:
		b.flushLocked()
	case len(b.pending) == 1:
		gen := b.gen
		b.timer = time.AfterFunc(b.opt.MaxWait, func() { b.timedFlush(gen) })
	}
	b.mu.Unlock()
	return req, nil
}

// timedFlush is the MaxWait expiry path: flush whatever is pending,
// unless a size-triggered flush already took this batch (generation
// mismatch).
func (b *Batcher) timedFlush(gen int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if gen != b.gen || len(b.pending) == 0 {
		return
	}
	b.flushLocked()
}

// flushLocked hands the pending batch to Exec on a fresh goroutine.
// Requests whose context died while queued are failed here — they never
// reach Exec, and their (buffered) result channels resolve immediately.
func (b *Batcher) flushLocked() {
	batch := b.pending
	b.pending = nil
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	live := batch[:0]
	var dead []*Request
	for _, r := range batch {
		if r.ctx.Err() != nil {
			dead = append(dead, r)
			continue
		}
		live = append(live, r)
	}
	b.inflight += len(live)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for _, r := range dead {
			r.deliver(sweep.JobResult{Job: r.Job, Err: r.ctx.Err()})
		}
		if len(live) > 0 {
			b.opt.Exec(live)
		}
		b.mu.Lock()
		b.inflight -= len(live)
		b.maybeIdleLocked()
		b.mu.Unlock()
	}()
}

// maybeIdleLocked closes the idle channel once the batcher is closed and
// fully drained.
func (b *Batcher) maybeIdleLocked() {
	if b.closed && len(b.pending) == 0 && b.inflight == 0 {
		select {
		case <-b.idle:
		default:
			close(b.idle)
		}
	}
}

// Close drains the batcher: no further Submit is admitted, the pending
// partial batch flushes immediately, and Close blocks until every
// in-flight batch has delivered or ctx expires (in which case the
// remaining jobs keep running but Close returns the context error).
// Close is idempotent.
func (b *Batcher) Close(ctx context.Context) error {
	b.mu.Lock()
	b.closed = true
	if len(b.pending) > 0 {
		b.flushLocked()
	}
	b.maybeIdleLocked()
	b.mu.Unlock()
	select {
	case <-b.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
