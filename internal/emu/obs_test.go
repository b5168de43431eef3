package emu

import (
	"bytes"
	"strings"
	"testing"

	"sarmany/internal/machine"
	"sarmany/internal/obs"
)

// obsWorkload runs a small mixed workload (compute, local and off-chip
// traffic, DMA, a link and barriers) on 4 cores and returns the chip.
func obsWorkload(t *testing.T, tr *obs.Tracer) *Chip {
	t.Helper()
	ch := New(E16G3())
	if tr != nil {
		ch.SetTracer(tr)
	}
	ext, err := machine.NewBufC(ch.Ext(), 4*512)
	if err != nil {
		t.Fatal(err)
	}
	link := ch.Connect(0, 1, 2)
	ch.Run(4, func(c *Core) {
		c.Charge(machine.Ops{FMA: 1000})
		for i := 0; i < 64; i++ {
			ext.Store(c, c.ID*512+i, 1)
		}
		ext.Load(c, c.ID*512) // stalling off-chip read
		c.Barrier()
		local, err := machine.NewBufC(c.Bank(2), 128)
		if err != nil {
			t.Error(err)
			return
		}
		d := c.DMACopyC(local, 0, ext, c.ID*512, 128)
		c.DMAWait(d)
		if c.ID == 0 {
			link.Send(c, local.Data[:16])
		}
		if c.ID == 1 {
			link.Recv(c)
		}
		c.Barrier()
	})
	return ch
}

func TestTracingDisabledIsBitIdenticalAndAllocFree(t *testing.T) {
	plain := obsWorkload(t, nil)
	traced := obsWorkload(t, obs.NewTracer(1e9))
	if p, tr := plain.MaxCycles(), traced.MaxCycles(); p != tr {
		t.Errorf("cycle counts differ: disabled %v, enabled %v", p, tr)
	}
	if p, tr := plain.TotalStats(), traced.TotalStats(); p != tr {
		t.Errorf("stats differ:\ndisabled %+v\nenabled  %+v", p, tr)
	}

	// With tracing disabled the hot path must not allocate.
	ch := New(E16G3())
	c := ch.Cores[0]
	local, err := machine.NewBufC(c.Bank(0), 64)
	if err != nil {
		t.Fatal(err)
	}
	remote := ch.Cores[5]
	raddr := ch.P.coreBase(remote.Row, remote.Col)
	if n := testing.AllocsPerRun(1000, func() {
		c.Charge(machine.Ops{FMA: 16})
		c.Charge(machine.Ops{IOp: 4})
		local.Store(c, 3, 1)
		local.Load(c, 3)
		c.Load(raddr, 8) // stalling remote read
		c.commit()
	}); n != 0 {
		t.Errorf("hot path allocates %v per run with tracing disabled", n)
	}
}

func TestTracerRecordsAllSpanKinds(t *testing.T) {
	tr := obs.NewTracer(1e9)
	obsWorkload(t, tr)
	seen := map[obs.Kind]bool{}
	for _, tk := range tr.Tracks() {
		for _, s := range tk.Spans() {
			seen[s.Kind] = true
			if s.End <= s.Start {
				t.Errorf("track %q: empty span %+v", tk.Name(), s)
			}
		}
	}
	for _, k := range []obs.Kind{
		obs.KindCompute, obs.KindStallExt, obs.KindStallDMA,
		obs.KindStallLink, obs.KindStallBarrier,
	} {
		if !seen[k] {
			t.Errorf("no %v span recorded", k)
		}
	}
	if !seen[obs.KindPhaseCompute] && !seen[obs.KindPhaseBandwidth] {
		t.Error("no phase span recorded")
	}
}

// TestPhaseSpansOnPhasesTrack checks that a traced run records one span
// per barrier phase, all on the chip's "phases" track and none on a core
// track, each matching its phase record in kind and extent.
func TestPhaseSpansOnPhasesTrack(t *testing.T) {
	tr := obs.NewTracer(1e9)
	ch := obsWorkload(t, tr)
	var spans []obs.Span
	for _, tk := range tr.Tracks() {
		for _, s := range tk.Spans() {
			phase := s.Kind == obs.KindPhaseCompute || s.Kind == obs.KindPhaseBandwidth
			if phase != (tk.Name() == "phases") {
				t.Errorf("track %q holds a %v span", tk.Name(), s.Kind)
			}
			if phase {
				spans = append(spans, s)
			}
		}
	}
	ps := ch.Phases()
	if len(spans) != len(ps) || len(ps) == 0 {
		t.Fatalf("%d phase spans for %d phases", len(spans), len(ps))
	}
	for i, p := range ps {
		want := obs.Span{Kind: obs.KindPhaseCompute, Start: p.Start, End: p.End}
		if p.BandwidthBound {
			want.Kind = obs.KindPhaseBandwidth
		}
		if spans[i] != want {
			t.Errorf("phase %d: span %+v, want %+v", i, spans[i], want)
		}
	}
}

func TestTraceSpansStayWithinRun(t *testing.T) {
	tr := obs.NewTracer(1e9)
	ch := obsWorkload(t, tr)
	end := ch.MaxCycles()
	for _, tk := range tr.Tracks() {
		for _, s := range tk.Spans() {
			if s.Start < 0 || s.End > end+1e-9 {
				t.Errorf("track %q: span %+v outside [0, %v]", tk.Name(), s, end)
			}
		}
	}
}

func TestStallCauseBreakdownSums(t *testing.T) {
	ch := obsWorkload(t, nil)
	for _, c := range ch.Cores[:4] {
		s := c.Stats
		sum := s.ReadStallCycles + s.ExtStallCycles + s.DMAStallCycles +
			s.LinkStallCycles + s.BarrierStallCycles
		if diff := sum - s.StallCycles; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("core %d: cause breakdown %v != total stall %v", c.ID, sum, s.StallCycles)
		}
	}
}

func TestAggregatesUseOnlyActiveCores(t *testing.T) {
	ch := New(E16G3())
	// A wide run first: all 16 cores accumulate work.
	ch.Run(16, func(c *Core) { c.Charge(machine.Ops{FMA: 1000 * (c.ID + 1)}) })
	// A narrower run on a fresh chip must not see the wide run's state —
	// and on the same chip, aggregation must cover only the active cores.
	ch.Run(4, func(c *Core) { c.Charge(machine.Ops{FMA: 10}) })
	s := ch.TotalStats()
	// Cores 0-3 carry 1000..4000 FMAs from the first run plus 10 each.
	if want := uint64(1000 + 2000 + 3000 + 4000 + 4*10); s.FMA != want {
		t.Errorf("TotalStats.FMA = %d, want %d (only the 4 active cores)", s.FMA, want)
	}
	// MaxCycles must ignore core 15's 16000 cycles from the wide run.
	if got := ch.MaxCycles(); got != 4010 {
		t.Errorf("MaxCycles = %v, want 4010 (core 3 of the narrow run)", got)
	}
}

func TestChipMetricsRegistry(t *testing.T) {
	ch := obsWorkload(t, nil)
	snap := ch.Metrics().Snapshot()
	total := ch.TotalStats()
	if v := snap.Value("emu.ops.fma"); v != float64(total.FMA) {
		t.Errorf("emu.ops.fma = %v, want %v", v, total.FMA)
	}
	if v := snap.Value("emu.cycles.stall"); v != total.StallCycles {
		t.Errorf("emu.cycles.stall = %v, want %v", v, total.StallCycles)
	}
	if v := snap.Value("emu.cores.active"); v != 4 {
		t.Errorf("emu.cores.active = %v", v)
	}
	if m, ok := snap.Get("emu.core.cycles"); !ok || m.Count != 4 {
		t.Errorf("emu.core.cycles histogram %+v", m)
	}
	bw := snap.Value("emu.phase.bandwidth_bound")
	cp := snap.Value("emu.phase.compute_bound")
	if bw+cp != snap.Value("emu.phase.count") {
		t.Errorf("phase bound counts %v+%v != %v", bw, cp, snap.Value("emu.phase.count"))
	}
	if v := snap.Value("emu.link.0->1.blocks"); v != 1 {
		t.Errorf("link blocks = %v", v)
	}
	if v := snap.Value("emu.link.0->1.bytes"); v != 16*8 {
		t.Errorf("link bytes = %v", v)
	}
}

// TestPhaseStatsReconcile: the per-phase stat deltas plus the tail after
// the final barrier must sum field-by-field to TotalStats.
func TestPhaseStatsReconcile(t *testing.T) {
	ch := obsWorkload(t, nil)
	var phased CoreStats
	for _, p := range ch.Phases() {
		phased = AddStats(phased, p.Stats)
	}
	tail := SubStats(ch.TotalStats(), phased)
	total := AddStats(phased, tail)
	if got, want := total, ch.TotalStats(); got != want {
		t.Errorf("phase deltas + tail != TotalStats:\n got %+v\nwant %+v", got, want)
	}
	// The first phase carries the pre-barrier work: 4 cores x 1000 FMAs.
	if got := ch.Phases()[0].Stats.FMA; got != 4000 {
		t.Errorf("phase 0 FMA delta = %d, want 4000", got)
	}
	// No barrier has released yet when phase 0 resolves.
	if got := ch.Phases()[0].Stats.BarrierStallCycles; got != 0 {
		t.Errorf("phase 0 barrier-stall delta = %v, want 0 (recorded after release)", got)
	}
}

func TestLinkStatsAndHandoffEdges(t *testing.T) {
	tr := obs.NewTracer(1e9)
	ch := obsWorkload(t, tr)
	ls := ch.LinkStats()
	if len(ls) != 1 {
		t.Fatalf("%d link stats, want 1", len(ls))
	}
	l := ls[0]
	if l.From != 0 || l.To != 1 || l.Hops != 1 || l.Blocks != 1 || l.Bytes != 16*8 {
		t.Errorf("link stat %+v", l)
	}
	// Core 1 reaches Recv before core 0's block arrives (both do the same
	// pre-work, and the send adds issue cycles), so the consumer stalls
	// and must record a handoff edge back to the producer's track.
	if l.RecvWait <= 0 {
		t.Fatalf("consumer did not wait (RecvWait=%v); workload no longer exercises the edge", l.RecvWait)
	}
	deps := ch.CoreTrack(1).Deps()
	if len(deps) != 1 {
		t.Fatalf("%d edges on consumer track, want 1", len(deps))
	}
	e := deps[0]
	if e.Src != ch.CoreTrack(0) {
		t.Errorf("edge source is %q, want producer track", e.Src.Name())
	}
	if e.SrcTime >= e.At {
		t.Errorf("edge times: src %v must precede arrival %v", e.SrcTime, e.At)
	}
	// The arrival must close the consumer's link-stall span.
	var linkSpan *obs.Span
	for _, s := range ch.CoreTrack(1).Spans() {
		if s.Kind == obs.KindStallLink {
			sc := s
			linkSpan = &sc
		}
	}
	if linkSpan == nil {
		t.Fatal("no link-stall span on consumer")
	}
	if diff := linkSpan.End - e.At; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("edge At %v != link-stall span end %v", e.At, linkSpan.End)
	}
}

func TestZeroDurationPhaseTable(t *testing.T) {
	ch := New(E16G3())
	ch.Run(2, func(c *Core) {
		c.Barrier() // zero-duration phase: no work before the barrier
		c.Charge(machine.Ops{FMA: 100})
		c.Barrier()
	})
	var buf bytes.Buffer
	ch.WritePhaseTable(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("phase table:\n%s", buf.String())
	}
	if !strings.Contains(lines[1], "-") {
		t.Errorf("zero-duration phase should print '-' for utilization: %q", lines[1])
	}
	if !strings.Contains(lines[2], "compute") && !strings.Contains(lines[2], "bandwidth") {
		t.Errorf("bound column missing: %q", lines[2])
	}
}
