package sim

import (
	"sync"
	"testing"
)

// TryLen returns the number of currently buffered messages. The value may
// be stale by the time it returns if the producer or the consumer is
// running.
func (c *Chan[T]) TryLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent - c.recvd
}

func TestChanTimestampPropagation(t *testing.T) {
	c := NewChan[int](4)
	// Sender at t=100 sends with 10-cycle latency.
	if ts := c.Send(100, 7, 10); ts != 100 {
		t.Errorf("send time %v", ts)
	}
	// An early receiver (t=50) advances to the arrival time 110.
	v, now := c.Recv(50)
	if v != 7 || now != 110 {
		t.Errorf("recv = %v at %v", v, now)
	}
	// A late receiver keeps its own time.
	c.Send(0, 8, 5)
	v, now = c.Recv(500)
	if v != 8 || now != 500 {
		t.Errorf("late recv = %v at %v", v, now)
	}
}

func TestChanBackPressure(t *testing.T) {
	c := NewChan[int](1)
	done := make(chan Time)
	c.Send(10, 1, 0) // fills the single slot at t=10
	go func() {
		// This send must block until the receiver frees the slot at t=200,
		// and be retimed to 200 even though the sender "arrived" at t=20.
		done <- c.Send(20, 2, 0)
	}()
	v, now := c.Recv(200)
	if v != 1 || now != 200 {
		t.Fatalf("recv = %v at %v", v, now)
	}
	if ts := <-done; ts != 200 {
		t.Errorf("blocked send retimed to %v, want 200", ts)
	}
	if v, now = c.Recv(0); v != 2 || now != 200 {
		t.Errorf("second recv = %v at %v", v, now)
	}
}

func TestChanFIFOOrder(t *testing.T) {
	c := NewChan[int](8)
	for i := 0; i < 8; i++ {
		c.Send(Time(i), i, 1)
	}
	if c.TryLen() != 8 {
		t.Fatalf("TryLen = %d", c.TryLen())
	}
	now := Time(0)
	for i := 0; i < 8; i++ {
		var v int
		v, now = c.Recv(now)
		if v != i {
			t.Fatalf("got %d at position %d", v, i)
		}
	}
}

func TestChanDeterministicPipeline(t *testing.T) {
	// A two-stage pipeline must produce identical finish times on every
	// run regardless of goroutine interleaving.
	run := func() Time {
		c := NewChan[int](2)
		var finish Time
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // producer: 100 items, 7 cycles each, 3-cycle transfer
			defer wg.Done()
			now := Time(0)
			for i := 0; i < 100; i++ {
				now += 7
				now = c.Send(now, i, 3)
			}
		}()
		go func() { // consumer: 11 cycles of work per item
			defer wg.Done()
			now := Time(0)
			for i := 0; i < 100; i++ {
				_, now = c.Recv(now)
				now += 11
			}
			finish = now
		}()
		wg.Wait()
		return finish
	}
	first := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d finished at %v, first run at %v", i, got, first)
		}
	}
	// The consumer is the bottleneck: ~100*11 plus pipeline fill.
	if first < 1100 || first > 1200 {
		t.Errorf("finish time %v outside expected window", first)
	}
}

func TestNewChanInvalidCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewChan[int](0)
}

func TestRendezvousRunsResolverOnce(t *testing.T) {
	const n = 8
	r := NewRendezvous(n)
	var calls int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				r.Wait(func() { calls++ })
			}
		}()
	}
	wg.Wait()
	if calls != 50 {
		t.Errorf("resolver ran %d times, want 50", calls)
	}
}

func TestRendezvousReleasesAll(t *testing.T) {
	r := NewRendezvous(3)
	var mu sync.Mutex
	order := []int{}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.Wait(nil)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if len(order) != 3 {
		t.Errorf("released %d parties", len(order))
	}
}

func TestRendezvousSingleParty(t *testing.T) {
	r := NewRendezvous(1)
	ran := false
	r.Wait(func() { ran = true })
	if !ran {
		t.Error("resolver did not run for single party")
	}
}

func TestNewRendezvousInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRendezvous(0)
}
