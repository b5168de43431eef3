package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sarmany/internal/obs"
)

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

// batcherOptions configures a batcher.
type batcherOptions struct {
	// BatchSize flushes a batch once this many records are pending
	// (default 8).
	BatchSize int
	// MaxWait flushes a partial batch this long after its first record
	// arrived (default 25ms), bounding queueing latency at low load.
	MaxWait time.Duration
	// QueueLimit bounds queued+in-flight records; submit beyond it
	// returns a QueueFullError (default 256).
	QueueLimit int
	// RetryAfter supplies the backoff hint stamped into QueueFullError
	// (nil = a constant second).
	RetryAfter func() time.Duration
	// Exec runs each flushed batch and must complete every record in it,
	// including those whose context ended while they were queued.
	// Required.
	Exec func(batch []*record)
	// Depth, if set, holds the queued plus in-flight record count: an
	// admitted record adds to it and a batch leaves it once Exec returns.
	Depth *obs.Gauge
}

// batcher coalesces admitted records into bounded batches: a batch
// flushes when it reaches BatchSize or MaxWait after its first record,
// whichever comes first. Flushed batches execute concurrently on Exec;
// the queue bound covers queued and executing records together, which
// is what admission control pushes back on.
type batcher struct {
	opt batcherOptions

	mu       sync.Mutex
	pending  []*record
	inflight int
	timer    *time.Timer
	gen      int // timer generation: a stale timer must not flush a newer batch
	closed   bool
	idle     chan struct{} // closed when closed && no pending && no inflight
}

// newBatcher returns a batcher with defaults applied. Exec is required.
func newBatcher(opt batcherOptions) *batcher {
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
		panic("serve: newBatcher requires Exec")
	}
	return &batcher{opt: opt, idle: make(chan struct{})}
}

// depth returns the queued plus in-flight record count.
func (b *batcher) depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending) + b.inflight
}

// submit queues one record. Typed errors report the admission decision:
// *DrainingError after drain, *QueueFullError at the queue bound.
func (b *batcher) submit(r *record) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return &DrainingError{}
	}
	if depth := len(b.pending) + b.inflight; depth >= b.opt.QueueLimit {
		b.mu.Unlock() // RetryAfter may read depth
		return &QueueFullError{Depth: depth, Limit: b.opt.QueueLimit, RetryAfter: b.opt.RetryAfter()}
	}
	b.pending = append(b.pending, r)
	b.publishLocked()
	switch {
	case len(b.pending) >= b.opt.BatchSize:
		b.flushLocked()
	case len(b.pending) == 1:
		gen := b.gen
		b.timer = time.AfterFunc(b.opt.MaxWait, func() { b.timedFlush(gen) })
	}
	b.mu.Unlock()
	return nil
}

// timedFlush is the MaxWait expiry path: flush whatever is pending,
// unless a size-triggered flush already took this batch (generation
// mismatch).
func (b *batcher) timedFlush(gen int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if gen != b.gen || len(b.pending) == 0 {
		return
	}
	b.flushLocked()
}

// flushLocked hands the pending batch to Exec on a fresh goroutine.
func (b *batcher) flushLocked() {
	batch := b.pending
	b.pending = nil
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.inflight += len(batch)
	go func() {
		b.opt.Exec(batch)
		b.mu.Lock()
		b.inflight -= len(batch)
		b.publishLocked()
		b.maybeIdleLocked()
		b.mu.Unlock()
	}()
}

// publishLocked sets the Depth gauge to the queued plus in-flight count.
func (b *batcher) publishLocked() {
	if b.opt.Depth != nil {
		b.opt.Depth.Set(float64(len(b.pending) + b.inflight))
	}
}

// maybeIdleLocked closes the idle channel once the batcher is closed and
// fully drained.
func (b *batcher) maybeIdleLocked() {
	if b.closed && len(b.pending) == 0 && b.inflight == 0 {
		select {
		case <-b.idle:
		default:
			close(b.idle)
		}
	}
}

// drain closes the batcher: no further submit is admitted, the pending
// partial batch flushes immediately, and drain blocks until every
// in-flight batch has completed or ctx expires (in which case the
// remaining jobs keep running but drain returns the context error).
// drain is idempotent.
func (b *batcher) drain(ctx context.Context) error {
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
