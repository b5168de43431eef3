package conform_test

import (
	"strings"
	"sync"
	"testing"

	"sarmany/internal/autofocus"
	"sarmany/internal/conform"
	"sarmany/internal/emu"
	"sarmany/internal/kernels"
	"sarmany/internal/machine"
	"sarmany/internal/obs"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// tracedFFBP runs the 16-core FFBP at the reduced workload once, traced,
// and shares the chip across tests (read-only after Run).
var tracedFFBP = sync.OnceValue(func() *emu.Chip {
	cfg := report.Small()
	data := sar.Simulate(cfg.Params, cfg.Targets, nil)
	ch := emu.New(cfg.Epiphany)
	tr := obs.NewTracer(cfg.Epiphany.Clock)
	tr.SetCapacity(1 << 16)
	ch.SetTracer(tr)
	if _, _, err := kernels.ParFFBP(ch, 16, data, cfg.Params, cfg.Box); err != nil {
		panic(err)
	}
	return ch
})

// TestConformFFBP is the end-to-end gate: the real 16-core FFBP workload
// (the paper's headline kernel) must satisfy every invariant, including
// the profile checks over its critical path and energy rows.
func TestConformFFBP(t *testing.T) {
	rep := conform.CheckAll(tracedFFBP())
	if !rep.OK() {
		t.Fatal(rep.Err())
	}
	// Core, phase, phase-stats, trace, profile-segment and energy-row
	// groups all apply to a traced FFBP run (links don't — FFBP shares
	// through the mesh, not streaming links).
	if rep.Checked < 6 {
		t.Fatalf("only %d invariant groups evaluated on a traced FFBP run; want the full set", rep.Checked)
	}
}

// TestConformAutofocus runs the streaming autofocus kernel — the
// link-heavy workload — through the same gate.
func TestConformAutofocus(t *testing.T) {
	cfg := report.Small()
	pairs := report.AutofocusWorkload(cfg)
	shifts := autofocus.RangeSweep(-1.5, 1.5, cfg.Shifts)
	ch := emu.New(cfg.Epiphany)
	tr := obs.NewTracer(cfg.Epiphany.Clock)
	tr.SetCapacity(1 << 16)
	ch.SetTracer(tr)
	if _, err := kernels.ParAutofocus(ch, pairs, shifts); err != nil {
		t.Fatal(err)
	}
	rep := conform.CheckAll(ch)
	if !rep.OK() {
		t.Fatal(rep.Err())
	}
}

// smallRun produces a fresh small run the tamper tests can corrupt.
func smallRun() *emu.Chip {
	p := emu.E16G3()
	ch := emu.New(p)
	ch.SetTracer(obs.NewTracer(p.Clock))
	ch.Run(4, func(c *emu.Core) {
		c.Charge(machine.Ops{FMA: 100 * (c.ID + 1)})
		c.Barrier()
	})
	return ch
}

// wantViolation asserts that the report flags the named invariant.
func wantViolation(t *testing.T, rep *conform.Report, invariant string) {
	t.Helper()
	if rep.OK() {
		t.Fatalf("tampered run passed; want a %q violation", invariant)
	}
	for _, v := range rep.Violations {
		if v.Invariant == invariant {
			return
		}
	}
	t.Fatalf("no %q violation; got: %v", invariant, rep.Err())
}

// TestCheckDetectsTampering corrupts each accounting surface in turn and
// requires the checker to localize the damage to the right invariant —
// the checker's own regression suite.
func TestCheckDetectsTampering(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		if rep := conform.Check(smallRun()); !rep.OK() {
			t.Fatal(rep.Err())
		}
	})
	t.Run("cycle-identity", func(t *testing.T) {
		ch := smallRun()
		ch.Cores[0].Stats.ComputeCycles += 5
		wantViolation(t, conform.Check(ch), "core.cycle-identity")
	})
	t.Run("nonnegative", func(t *testing.T) {
		ch := smallRun()
		ch.Cores[1].Stats.StallCycles = -1
		wantViolation(t, conform.Check(ch), "core.nonnegative")
	})
	t.Run("stall-breakdown", func(t *testing.T) {
		ch := smallRun()
		ch.Cores[2].Stats.BarrierStallCycles += 3
		wantViolation(t, conform.Check(ch), "core.stall-breakdown")
	})
	t.Run("stats-reconcile", func(t *testing.T) {
		ch := smallRun()
		// Shrinking a run total below the phase-delta sum models a wrapped
		// or double-counted delta.
		ch.Cores[3].Stats.FMA = 1
		rep := conform.Check(ch)
		wantViolation(t, rep, "phase.stats-reconcile")
		if !strings.Contains(rep.Err().Error(), "ops.fma") {
			t.Fatalf("violation does not name the field: %v", rep.Err())
		}
	})
	t.Run("err-names-invariant", func(t *testing.T) {
		ch := smallRun()
		ch.Cores[0].Stats.ComputeCycles += 5
		err := conform.Check(ch).Err()
		if err == nil || !strings.Contains(err.Error(), "core.cycle-identity") {
			t.Fatalf("Err() must name the violated invariant, got: %v", err)
		}
	})
}

// TestCheckUntracedRun verifies the checker degrades gracefully when no
// tracer was attached: core/phase/stats invariants still run, trace and
// profile checks are skipped rather than failed.
func TestCheckUntracedRun(t *testing.T) {
	p := emu.E16G3()
	ch := emu.New(p)
	ch.Run(2, func(c *emu.Core) {
		c.Charge(machine.Ops{FMA: 50})
		c.Barrier()
	})
	rep := conform.CheckAll(ch)
	if !rep.OK() {
		t.Fatal(rep.Err())
	}
	if rep.Checked == 0 {
		t.Fatal("no invariant groups evaluated")
	}
}
