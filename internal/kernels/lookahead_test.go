package kernels

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"sarmany/internal/machine"
	"sarmany/internal/refcpu"
)

// faultyCPU is a reference CPU whose nth load panics, standing in for a
// machine that fails while SeqFFBP charges a beam. It counts the loads of
// Load and ChargeBeam calls alike: a wrapper that embeds a machine
// inherits the methods it does not define.
type faultyCPU struct {
	*refcpu.CPU
	n int
}

func (c *faultyCPU) Load(addr uint32, n int) {
	if c.n--; c.n == 0 {
		panic("faultyCPU: load fault")
	}
	c.CPU.Load(addr, n)
}

// ChargeBeam panics, before charging the beam, when the nth load is one
// of the beam's: a pixel of one of its runs whose offset is not -1.
func (c *faultyCPU) ChargeBeam(b machine.Beam) {
	for _, runs := range b.Runs {
		for _, r := range runs {
			if r[2] < 0 {
				continue
			}
			for range r[1] - r[0] + 1 {
				if c.n--; c.n == 0 {
					panic("faultyCPU: load fault")
				}
			}
		}
	}
	c.CPU.ChargeBeam(b)
}

// TestSeqFFBPLookaheadExitsOnPanic: when the machine panics in the middle
// of the merges, SeqFFBP's geometry helper must not outlive the call. A
// job server recovers job panics, so a helper left blocked would live as
// long as the server.
func TestSeqFFBPLookaheadExitsOnPanic(t *testing.T) {
	p, box, data := testSetup()
	stage0 := p.NumPulses * p.NumBins // loads before the first merge
	start := runtime.NumGoroutine()
	for _, n := range []int{stage0 + 1, stage0 + 5*p.NumBins, 4 * stage0} {
		cpu := &faultyCPU{CPU: refcpu.New(refcpu.I7M620()), n: n}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("load %d did not panic", n)
				}
			}()
			SeqFFBP(cpu, cpu.Mem(), data, p, box)
		}()
	}
	// A helper that has returned may take a moment to leave the count,
	// and goroutines of earlier tests may still be leaving it too.
	helpers := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), ").seqMerges.func")
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= start && helpers() == 0 {
			break
		}
	}
	if got := runtime.NumGoroutine(); got > start {
		t.Errorf("%d goroutines after the panics, %d before", got, start)
	}
	if n := helpers(); n > 0 {
		t.Errorf("%d lookahead helpers still running", n)
	}
}
