// Package sim provides the deterministic virtual-time primitives the
// Epiphany chip model is built on. Simulated cores run as goroutines, each
// carrying its own cycle counter; they synchronize through two primitives:
//
//   - Chan, a capacity-limited FIFO carrying timestamped messages with
//     credit-based back-pressure. The receiver's clock advances to at
//     least the message availability time; a sender that finds the buffer
//     full advances to the time a slot was freed. With a single producer
//     and a single consumer per channel (how the autofocus pipeline uses
//     them), all timestamps are independent of goroutine scheduling.
//
//   - Rendezvous, an N-party barrier whose last arriver runs a resolution
//     function before anyone is released. The Epiphany model uses the
//     resolution step to settle off-chip bandwidth contention for the
//     phase that just ended, from the complete set of per-core traffic
//     reports — again independent of arrival order.
//
// This "timestamped process network" style is sufficient for the paper's
// two mappings (SPMD compute/barrier phases and an MPMD streaming
// pipeline) and keeps every simulation bit-reproducible, which the test
// suite relies on.
package sim

import "sync"

// Time is virtual time in clock cycles (fractional cycles allowed).
type Time = float64

// slot is one entry of a Chan's ring: while message k is queued it holds
// the value and the time it becomes visible to the receiver; once
// received, at holds the time the receiver freed the slot.
type slot[T any] struct {
	val T
	at  Time
}

// Chan is a single-producer single-consumer FIFO of timestamped values
// with a fixed capacity. Send k and receive k use ring slot k mod
// capacity, so send k takes over the slot, and the freed time, of
// receive k-capacity: the credit-based back-pressure of a bounded
// buffer, with timestamps that do not depend on goroutine scheduling.
// A side parks only when the ring is empty (receiver) or full (sender),
// and the other side wakes it after unlocking mu.
type Chan[T any] struct {
	mu                sync.Mutex
	notEmpty, notFull sync.Cond
	ring              []slot[T]
	sent, recvd       int
}

// NewChan returns a channel with the given buffer capacity (number of
// in-flight messages). Capacity must be at least 1.
func NewChan[T any](capacity int) *Chan[T] {
	if capacity < 1 {
		panic("sim: channel capacity must be >= 1")
	}
	c := &Chan[T]{ring: make([]slot[T], capacity)}
	c.notEmpty.L, c.notFull.L = &c.mu, &c.mu
	return c
}

// Send enqueues v at sender time now; the message becomes visible to the
// receiver after dur (the modeled transfer latency). If the buffer is
// full, the sender blocks until the receiver frees a slot, and the send is
// retimed to that moment (back-pressure). Send returns the sender's new
// local time: the cycle at which the send issued.
func (c *Chan[T]) Send(now Time, v T, dur Time) Time {
	c.mu.Lock()
	for c.sent-c.recvd == len(c.ring) {
		c.notFull.Wait()
	}
	s := &c.ring[c.sent%len(c.ring)]
	if s.at > now {
		now = s.at
	}
	s.val, s.at = v, now+dur
	c.sent++
	c.mu.Unlock()
	c.notEmpty.Signal()
	return now
}

// Recv dequeues the next message at receiver time now, blocking until one
// exists. It returns the value and the receiver's new local time: the
// maximum of now and the message availability time.
func (c *Chan[T]) Recv(now Time) (T, Time) {
	c.mu.Lock()
	for c.sent == c.recvd {
		c.notEmpty.Wait()
	}
	s := &c.ring[c.recvd%len(c.ring)]
	v := s.val
	if s.at > now {
		now = s.at
	}
	var zero T
	s.val, s.at = zero, now
	c.recvd++
	c.mu.Unlock()
	c.notFull.Signal()
	return v, now
}

// Rendezvous is a reusable N-party barrier. The last goroutine to arrive
// runs the resolution function (while all others wait) and then everyone
// is released. It is the synchronization point at which the chip model
// settles shared-resource contention.
type Rendezvous struct {
	n      int
	mu     sync.Mutex
	cond   *sync.Cond
	count  int
	gen    uint64
	action func()
}

// NewRendezvous returns a barrier for n parties.
func NewRendezvous(n int) *Rendezvous {
	if n < 1 {
		panic("sim: rendezvous needs at least one party")
	}
	r := &Rendezvous{n: n}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Wait blocks until all n parties have called Wait. The last arriver runs
// resolve (if non-nil) before releasing the others; every party must pass
// the same resolve on a given round (conventionally all pass the same
// function value, or only the model's designated closure).
func (r *Rendezvous) Wait(resolve func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if resolve != nil {
		r.action = resolve
	}
	gen := r.gen
	r.count++
	if r.count == r.n {
		if r.action != nil {
			r.action()
			r.action = nil
		}
		r.count = 0
		r.gen++
		r.cond.Broadcast()
		return
	}
	for gen == r.gen {
		r.cond.Wait()
	}
}
