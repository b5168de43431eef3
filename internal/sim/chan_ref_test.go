package sim

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// refChan is the two-channel implementation Chan replaced, kept as the
// oracle for its timestamps: a data channel of queued messages and a
// credit channel of the times the consumer freed each slot, primed with
// capacity credits at time 0.
type refChan[T any] struct {
	data   chan slot[T]
	credit chan Time
}

func newRefChan[T any](capacity int) *refChan[T] {
	c := &refChan[T]{
		data:   make(chan slot[T], capacity),
		credit: make(chan Time, capacity),
	}
	for i := 0; i < capacity; i++ {
		c.credit <- 0
	}
	return c
}

func (c *refChan[T]) Send(now Time, v T, dur Time) Time {
	freed := <-c.credit
	if freed > now {
		now = freed
	}
	c.data <- slot[T]{val: v, at: now + dur}
	return now
}

func (c *refChan[T]) Recv(now Time) (T, Time) {
	m := <-c.data
	if m.at > now {
		now = m.at
	}
	c.credit <- now
	return m.val, now
}

// timedChan is the interface Chan and refChan share.
type timedChan interface {
	Send(now Time, v int, dur Time) Time
	Recv(now Time) (int, Time)
}

// schedule is one seeded single-producer single-consumer workload: the
// producer advances its clock by sendAdv[k] and sends message k with
// transfer latency dur[k]; the consumer advances by recvAdv[k] before
// receive k. sendYield and recvYield mark the steps at which that side
// first calls runtime.Gosched, to vary the interleaving.
type schedule struct {
	capacity             int
	sendAdv, dur         []Time
	recvAdv              []Time
	sendYield, recvYield []bool
}

func randomSchedule(rng *rand.Rand) schedule {
	n := 1 + rng.Intn(200)
	s := schedule{capacity: 1 + rng.Intn(5)}
	for k := 0; k < n; k++ {
		s.sendAdv = append(s.sendAdv, Time(rng.Intn(40))+rng.Float64())
		s.dur = append(s.dur, Time(rng.Intn(30))*rng.Float64())
		s.recvAdv = append(s.recvAdv, Time(rng.Intn(40))+rng.Float64())
		s.sendYield = append(s.sendYield, rng.Intn(4) == 0)
		s.recvYield = append(s.recvYield, rng.Intn(4) == 0)
	}
	return s
}

type received struct {
	val int
	at  Time
}

// replay runs s on c with the producer and the consumer on separate
// goroutines, and returns every send time and every received message.
func replay(c timedChan, s schedule) ([]Time, []received) {
	n := len(s.sendAdv)
	sends := make([]Time, n)
	recvs := make([]received, n)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		now := Time(0)
		for k := 0; k < n; k++ {
			if s.sendYield[k] {
				runtime.Gosched()
			}
			now = c.Send(now+s.sendAdv[k], k, s.dur[k])
			sends[k] = now
		}
	}()
	go func() {
		defer wg.Done()
		now := Time(0)
		for k := 0; k < n; k++ {
			if s.recvYield[k] {
				runtime.Gosched()
			}
			var v int
			v, now = c.Recv(now + s.recvAdv[k])
			recvs[k] = received{v, now}
		}
	}()
	wg.Wait()
	return sends, recvs
}

// TestChanMatchesReference replays seeded random schedules on Chan and
// on the two-channel reference: both must return the same send times and
// the same (value, time) receive sequence.
func TestChanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		s := randomSchedule(rng)
		gotSends, gotRecvs := replay(NewChan[int](s.capacity), s)
		wantSends, wantRecvs := replay(newRefChan[int](s.capacity), s)
		for k := range wantSends {
			if gotSends[k] != wantSends[k] {
				t.Fatalf("trial %d (capacity %d): send %d at %v, reference %v",
					trial, s.capacity, k, gotSends[k], wantSends[k])
			}
			if gotRecvs[k] != wantRecvs[k] {
				t.Fatalf("trial %d (capacity %d): receive %d = %+v, reference %+v",
					trial, s.capacity, k, gotRecvs[k], wantRecvs[k])
			}
		}
	}
}
