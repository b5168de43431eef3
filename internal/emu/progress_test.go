package emu

import (
	"sync"
	"testing"

	"sarmany/internal/machine"
)

// TestProgressDisabledByDefault pins the opt-in contract: without
// EnableProgress the chip reports no snapshot and cores carry nil cells.
func TestProgressDisabledByDefault(t *testing.T) {
	ch := New(E16G3())
	if ch.ProgressEnabled() {
		t.Fatal("progress enabled on a fresh chip")
	}
	if _, ok := ch.Progress(); ok {
		t.Fatal("Progress() ok without EnableProgress")
	}
	for _, c := range ch.Cores {
		if c.prog != nil {
			t.Fatal("core carries a progress cell without EnableProgress")
		}
	}
}

// TestProgressTracksClocks drives a run and checks the published cells
// land on the cores' final committed clocks, with the phase counter
// matching the barrier count.
func TestProgressTracksClocks(t *testing.T) {
	ch := New(E16G3())
	ch.EnableProgress()
	ch.EnableProgress() // idempotent
	const phases = 3
	ch.Run(4, func(c *Core) {
		for i := 0; i < phases; i++ {
			c.Charge(machine.Ops{FMA: 100 * (c.ID + 1)})
			c.Barrier()
		}
	})
	p, ok := ch.Progress()
	if !ok {
		t.Fatal("Progress() not ok after EnableProgress")
	}
	if p.Phases != phases {
		t.Errorf("phases = %d, want %d", p.Phases, phases)
	}
	if len(p.Cores) != len(ch.Cores) {
		t.Fatalf("cores = %d, want %d", len(p.Cores), len(ch.Cores))
	}
	for i := 0; i < 4; i++ {
		if want := ch.Cores[i].Cycles(); p.Cores[i] != want {
			t.Errorf("core %d progress = %v, want final clock %v", i, p.Cores[i], want)
		}
	}
	for i := 4; i < len(p.Cores); i++ {
		if p.Cores[i] != 0 {
			t.Errorf("idle core %d progress = %v, want 0", i, p.Cores[i])
		}
	}
	if p.MaxCycles() != ch.MaxCycles() {
		t.Errorf("MaxCycles = %v, want %v", p.MaxCycles(), ch.MaxCycles())
	}
	if p.TotalCycles() <= 0 {
		t.Errorf("TotalCycles = %v, want > 0", p.TotalCycles())
	}
}

// TestProgressConcurrentReads samples Progress from a separate goroutine
// while the run executes — the heartbeat pattern. Under -race this pins
// that publication is genuinely race-free, and it checks the observed
// total-cycles scalar is monotone.
func TestProgressConcurrentReads(t *testing.T) {
	ch := New(E16G3())
	ch.EnableProgress()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var lastTotal float64
	var samples int
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p, ok := ch.Progress()
			if !ok {
				continue
			}
			if tot := p.TotalCycles(); tot < lastTotal {
				t.Errorf("total cycles went backwards: %v -> %v", lastTotal, tot)
				return
			} else {
				lastTotal = tot
			}
			samples++
		}
	}()

	ch.Run(16, func(c *Core) {
		for i := 0; i < 50; i++ {
			c.Charge(machine.Ops{FMA: 1000})
			c.Charge(machine.Ops{Flop: 200})
			c.Barrier()
		}
	})
	close(stop)
	wg.Wait()
	if samples == 0 {
		t.Fatal("sampler never ran")
	}
	p, _ := ch.Progress()
	if p.TotalCycles() < lastTotal {
		t.Errorf("final total %v below last observed %v", p.TotalCycles(), lastTotal)
	}
	if p.Phases != 50 {
		t.Errorf("phases = %d, want 50", p.Phases)
	}
}

// TestProgressDoesNotPerturbModel pins that enabling progress changes
// nothing about simulated time: two identical runs, one instrumented,
// produce identical clocks and stats.
func TestProgressDoesNotPerturbModel(t *testing.T) {
	run := func(enable bool) *Chip {
		ch := New(E16G3())
		if enable {
			ch.EnableProgress()
		}
		ch.Run(8, func(c *Core) {
			c.Charge(machine.Ops{FMA: 500 * (c.ID + 1)})
			c.Charge(machine.Ops{IOp: 300})
			c.Barrier()
			c.Charge(machine.Ops{Trig: 40})
			c.Barrier()
		})
		return ch
	}
	a, b := run(false), run(true)
	if a.MaxCycles() != b.MaxCycles() {
		t.Errorf("MaxCycles diverged: %v vs %v", a.MaxCycles(), b.MaxCycles())
	}
	for i := range a.Cores {
		if a.Cores[i].Stats != b.Cores[i].Stats {
			t.Errorf("core %d stats diverged", i)
		}
	}
}
