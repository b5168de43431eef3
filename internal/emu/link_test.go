package emu

import (
	"runtime"
	"testing"
)

// TestLinkSteadyStateAllocs checks that a link reuses its block buffers:
// once every buffer has been filled, a Send and Recv pair allocates
// nothing.
func TestLinkSteadyStateAllocs(t *testing.T) {
	ch := New(E16G3())
	const capacity = 2
	l := ch.Connect(0, 1, capacity)
	prod, cons := ch.Cores[0], ch.Cores[1]
	block := make([]complex64, 16)
	pair := func() {
		l.Send(prod, block)
		l.Recv(cons)
	}
	for i := 0; i < 2*(capacity+2); i++ {
		pair()
	}
	if n := testing.AllocsPerRun(100, pair); n != 0 {
		t.Errorf("steady-state Send+Recv allocates %v times, want 0", n)
	}
}

// TestLinkHeldBlockStaysValid checks the Recv contract: a received block
// is valid until the next Recv on the link, even while the producer runs
// ahead and refills the link's other buffers. Run it under -race, which
// also reports a producer write to a block the consumer still holds.
func TestLinkHeldBlockStaysValid(t *testing.T) {
	for _, capacity := range []int{1, 4} {
		ch := New(E16G3())
		l := ch.Connect(0, 1, capacity)
		const blocks, width = 200, 8
		ch.Run(2, func(c *Core) {
			switch c.ID {
			case 0:
				vals := make([]complex64, width)
				for k := 0; k < blocks; k++ {
					for i := range vals {
						vals[i] = complex(float32(k), float32(i))
					}
					l.Send(c, vals)
				}
			case 1:
				// A failing consumer keeps draining the link, so the
				// producer never blocks forever.
				bad := false
				for k := 0; k < blocks; k++ {
					v := l.Recv(c)
					held := append([]complex64(nil), v...)
					// Hold the block while the producer fills the
					// remaining buffers.
					for i := 0; i < 4; i++ {
						runtime.Gosched()
					}
					for i, x := range v {
						if want := complex(float32(k), float32(i)); !bad && (held[i] != want || x != held[i]) {
							t.Errorf("capacity %d: block %d element %d = %v (received %v), want %v",
								capacity, k, i, x, held[i], want)
							bad = true
						}
					}
				}
			}
		})
	}
}
