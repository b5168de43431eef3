package conform_test

import (
	"testing"

	"sarmany/internal/conform"
	"sarmany/internal/emu"
	"sarmany/internal/fault"
	"sarmany/internal/machine"
	"sarmany/internal/obs"
	"sarmany/internal/profile"
)

// faultedPlan exercises every fault mechanism at once: a hard halt (slot 3
// must remap), a derate, a certain-to-fire link fault, and a
// certain-to-fire DMA fault.
func faultedPlan() fault.Plan {
	return fault.Plan{
		Seed:    99,
		Halts:   []int{3},
		Derates: []fault.Derate{{Core: 0, Factor: 2}},
		Links:   []fault.LinkFault{{From: 0, To: 1, Rate: 1, TimeoutCycles: 100, BackoffCycles: 10, MaxRetries: 2}},
		DMAs:    []fault.DMAFault{{Core: 0, Rate: 1, TimeoutCycles: 50, MaxRetries: 1}},
	}
}

// faultedRun executes a small 4-core workload (compute, an ext DMA burst,
// a streaming link, barriers) under faultedPlan, with the halted slot
// remapped, and returns the chip for the tamper tests to corrupt.
func faultedRun(t *testing.T) *emu.Chip {
	t.Helper()
	p := emu.E16G3()
	ch := emu.New(p)
	ch.SetTracer(obs.NewTracer(p.Clock))
	ch.SetFaults(fault.MustCompile(faultedPlan()))
	ext, err := machine.NewBufC(ch.Ext(), 256)
	if err != nil {
		t.Fatal(err)
	}
	link := ch.Connect(0, 1, 2)
	assign, err := ch.Assignments(4)
	if err != nil {
		t.Fatal(err)
	}
	slots := map[int]int{}
	for _, core := range assign {
		slots[core]++
	}
	ch.Run(4, func(c *emu.Core) {
		for i := 0; i < slots[c.ID]; i++ {
			c.Charge(machine.Ops{FMA: 100})
		}
		if c.ID == 0 {
			local, err := machine.NewBufC(c.Bank(2), 64)
			if err != nil {
				panic(err)
			}
			d := c.DMACopyC(local, 0, ext, 0, 64)
			c.DMAWait(d)
			link.Send(c, local.Data[:16])
		}
		if c.ID == 1 {
			link.Recv(c)
		}
		c.Barrier()
	})
	return ch
}

// TestConformFaultedRun is the positive gate: a run degraded by a full
// fault plan must still satisfy every invariant, including the profile
// degradation checks.
func TestConformFaultedRun(t *testing.T) {
	ch := faultedRun(t)
	rep := conform.CheckAll(ch)
	if !rep.OK() {
		t.Fatal(rep.Err())
	}
	if len(ch.Remaps()) != 1 {
		t.Fatalf("remaps = %v; want exactly the halted slot moved", ch.Remaps())
	}
	p, err := profile.AnalyzeChip(ch)
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults == nil || len(p.Faults.Rows) == 0 {
		t.Fatal("faulted traced run produced no degradation report")
	}
}

// TestCheckDetectsFaultTampering corrupts each fault-accounting surface
// in turn and requires the checker to localize the damage.
func TestCheckDetectsFaultTampering(t *testing.T) {
	t.Run("clean-run-with-fault-counters", func(t *testing.T) {
		ch := smallRun()
		ch.Cores[0].Stats.LinkRetries = 1
		wantViolation(t, conform.Check(ch), "fault.clean")
	})
	t.Run("retry-bytes-exceed-noc", func(t *testing.T) {
		ch := faultedRun(t)
		ch.Cores[0].Stats.RetryBytes = ch.Cores[0].Stats.NoCBytes + 1
		wantViolation(t, conform.Check(ch), "fault.attribution")
	})
	t.Run("derate-exceeds-compute", func(t *testing.T) {
		ch := faultedRun(t)
		ch.Cores[0].Stats.DerateCycles = ch.Cores[0].Stats.ComputeCycles + 1
		wantViolation(t, conform.Check(ch), "fault.attribution")
	})
	t.Run("negative-fault-cycles", func(t *testing.T) {
		ch := faultedRun(t)
		ch.Cores[1].Stats.DMARetryCycles = -1
		wantViolation(t, conform.Check(ch), "fault.attribution")
	})
	t.Run("remap-from-live-core", func(t *testing.T) {
		ch := faultedRun(t)
		ch.Remaps()[0].From = 1 // core 1 was never halted
		wantViolation(t, conform.Check(ch), "fault.remap")
	})
	t.Run("remap-onto-halted-core", func(t *testing.T) {
		ch := faultedRun(t)
		ch.Remaps()[0].To = 3 // core 3 is halted
		wantViolation(t, conform.Check(ch), "fault.remap")
	})
	t.Run("halted-core-ran", func(t *testing.T) {
		ch := faultedRun(t)
		ch.Cores[3].Stats.FMA = 1
		wantViolation(t, conform.Check(ch), "fault.halted")
	})
}

// TestCheckDetectsChipFaultTampering runs a 1x2 chip array with chip 1
// hard-halted and corrupts the chip-level fault surfaces: the checker
// must reject remaps onto the dead chip, remaps claiming to move work
// off cores that are alive (or don't exist), and any sign the halted
// chip's cores ran.
func TestCheckDetectsChipFaultTampering(t *testing.T) {
	chipHaltedRun := func(t *testing.T) *emu.Chip {
		t.Helper()
		ch := emu.New(emu.E16G3().WithMesh(2, 2).WithChips(1, 2))
		ch.SetFaults(fault.MustCompile(fault.Plan{ChipHalts: []int{1}}))
		if _, err := ch.Assignments(8); err != nil {
			t.Fatal(err)
		}
		ch.Run(8, func(c *emu.Core) {
			c.Charge(machine.Ops{FMA: 100})
			c.Barrier()
		})
		return ch
	}
	t.Run("clean", func(t *testing.T) {
		ch := chipHaltedRun(t)
		if rep := conform.Check(ch); !rep.OK() {
			t.Fatal(rep.Err())
		}
		if len(ch.Remaps()) != 4 {
			t.Fatalf("remaps = %+v; want the halted chip's four slots moved", ch.Remaps())
		}
	})
	t.Run("remap-onto-halted-chip", func(t *testing.T) {
		ch := chipHaltedRun(t)
		ch.Remaps()[0].To = 3 // core 3 sits on the halted chip
		wantViolation(t, conform.Check(ch), "fault.remap")
	})
	t.Run("remap-from-live-chip", func(t *testing.T) {
		ch := chipHaltedRun(t)
		ch.Remaps()[0].From = 0 // chip 0 is alive
		wantViolation(t, conform.Check(ch), "fault.remap")
	})
	t.Run("remap-onto-nonexistent-core", func(t *testing.T) {
		ch := chipHaltedRun(t)
		ch.Remaps()[0].To = 99
		wantViolation(t, conform.Check(ch), "fault.remap")
	})
	t.Run("halted-chip-core-ran", func(t *testing.T) {
		ch := chipHaltedRun(t)
		ch.Cores[6].Stats.FMA = 1 // core 6 sits on the halted chip
		wantViolation(t, conform.Check(ch), "fault.halted")
	})
}

// TestCheckFaultLinksTampering feeds hand-corrupted link statistics to
// the retransmission-balance checker.
func TestCheckFaultLinksTampering(t *testing.T) {
	good := emu.LinkStat{
		From: 0, To: 1, Blocks: 4, Bytes: 512, Recvs: 4, RecvBytes: 512,
		Retries: 2, RetryBytes: 256, RetryCycles: 300,
		WireBlocks: 6, WireBytes: 768,
	}
	if rep := conform.CheckFaultLinksReport([]emu.LinkStat{good}); !rep.OK() {
		t.Fatalf("balanced faulty link flagged: %v", rep.Err())
	}
	cases := []struct {
		name   string
		mutate func(*emu.LinkStat)
	}{
		{"wire-blocks", func(l *emu.LinkStat) { l.WireBlocks-- }},
		{"wire-bytes", func(l *emu.LinkStat) { l.WireBytes += 64 }},
		{"wire-under-recv", func(l *emu.LinkStat) { l.WireBytes = 128; l.Bytes = 0; l.RetryBytes = 128 }},
		{"negative-retry-cycles", func(l *emu.LinkStat) { l.RetryCycles = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := good
			tc.mutate(&l)
			wantViolation(t, conform.CheckFaultLinksReport([]emu.LinkStat{l}), "fault.link-wire")
		})
	}
}

// TestCheckProfileDegradation tampers with the degradation report and
// requires CheckProfile to catch every inconsistency against the
// aggregate counters.
func TestCheckProfileDegradation(t *testing.T) {
	analyze := func(t *testing.T) *profile.Profile {
		t.Helper()
		p, err := profile.AnalyzeChip(faultedRun(t))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	t.Run("clean", func(t *testing.T) {
		if rep := conform.CheckProfile(analyze(t)); !rep.OK() {
			t.Fatal(rep.Err())
		}
	})
	t.Run("row-cycles", func(t *testing.T) {
		p := analyze(t)
		p.Faults.Rows[0].Cycles += 7
		wantViolation(t, conform.CheckProfile(p), "profile.degradation")
	})
	t.Run("overhead-claim", func(t *testing.T) {
		p := analyze(t)
		p.Faults.OverheadCycles *= 2
		wantViolation(t, conform.CheckProfile(p), "profile.degradation")
	})
	t.Run("overhead-energy", func(t *testing.T) {
		p := analyze(t)
		p.Faults.OverheadEnergyJ *= 2
		wantViolation(t, conform.CheckProfile(p), "profile.degradation")
	})
	t.Run("missing-report", func(t *testing.T) {
		p := analyze(t)
		p.Faults = nil
		wantViolation(t, conform.CheckProfile(p), "profile.degradation")
	})
	t.Run("remap-slot-count", func(t *testing.T) {
		p := analyze(t)
		p.Faults.RemappedSlots++
		wantViolation(t, conform.CheckProfile(p), "profile.degradation")
	})
	t.Run("costed-remap-row", func(t *testing.T) {
		p := analyze(t)
		for i := range p.Faults.Rows {
			if p.Faults.Rows[i].Kind == "remap" {
				p.Faults.Rows[i].EnergyJ = 1e-9
			}
		}
		wantViolation(t, conform.CheckProfile(p), "profile.degradation")
	})
}
