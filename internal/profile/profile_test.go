package profile_test

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sarmany/internal/bench"
	"sarmany/internal/emu"
	"sarmany/internal/energy"
	"sarmany/internal/kernels"
	"sarmany/internal/machine"
	"sarmany/internal/obs"
	"sarmany/internal/profile"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// tracedFFBP runs the 16-core parallel FFBP at the reduced workload with
// tracing enabled — the reference run the acceptance tests profile. The
// run is shared across tests (the chip is read-only after Run).
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

func analyzeFFBP(t *testing.T) *profile.Profile {
	t.Helper()
	p, err := profile.AnalyzeChip(tracedFFBP())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAnalyzeRequiresTracer(t *testing.T) {
	ch := emu.New(emu.E16G3())
	ch.Run(2, func(c *emu.Core) { c.Charge(machine.Ops{FMA: 10}) })
	if _, err := profile.AnalyzeChip(ch); err == nil {
		t.Fatal("AnalyzeChip accepted an untraced chip")
	}
}

// TestCriticalPathReconciles is the tentpole acceptance check: on a traced
// 16-core FFBP run the critical path's per-cause totals must partition the
// run — their sum within 1% of the run's cycle count (it is exact by
// construction) — and the segment chain must tile [0, RunCycles]
// contiguously in time.
func TestCriticalPathReconciles(t *testing.T) {
	p := analyzeFFBP(t)
	if p.DroppedSpans != 0 {
		t.Fatalf("%d spans dropped; raise the test tracer capacity", p.DroppedSpans)
	}
	sum := p.Critical.Cycles()
	if diff := math.Abs(sum - p.RunCycles); diff > 0.01*p.RunCycles {
		t.Errorf("critical-path cause totals sum to %.0f cycles, run is %.0f (diff %.2f%%)",
			sum, p.RunCycles, 100*diff/p.RunCycles)
	}

	segs := p.Critical.Segments
	if len(segs) == 0 {
		t.Fatal("empty critical path")
	}
	if segs[0].Start > 1e-6 {
		t.Errorf("path starts at %.0f, want 0", segs[0].Start)
	}
	if end := segs[len(segs)-1].End; math.Abs(end-p.RunCycles) > 1e-6 {
		t.Errorf("path ends at %.0f, want %.0f", end, p.RunCycles)
	}
	for i := 1; i < len(segs); i++ {
		if math.Abs(segs[i].Start-segs[i-1].End) > 1e-6 {
			t.Errorf("segment %d starts at %.2f but previous ends at %.2f",
				i, segs[i].Start, segs[i-1].End)
		}
	}

	// FFBP is the paper's bandwidth-bound kernel: real compute must be on
	// the path, and the walk must attribute something to waiting (ext
	// reads, DMA, barrier drain) rather than labeling everything compute.
	if p.Critical.ByCause["compute"] <= 0 {
		t.Error("no compute on the critical path")
	}
	wait := p.Critical.ByCause["ext.drain"] + p.Critical.ByCause["stall.ext"] +
		p.Critical.ByCause["stall.dma"] + p.Critical.ByCause["stall.barrier"]
	if wait <= 0 {
		t.Error("no waiting attributed on the critical path of a bandwidth-bound kernel")
	}
	if idle := p.Critical.ByCause["idle"]; idle > 0.05*p.RunCycles {
		t.Errorf("%.1f%% of the path is unattributed idle", 100*idle/p.RunCycles)
	}
}

// TestPhaseEnergyReconciles: the per-phase energy rows must sum
// component-wise to the whole-run internal/energy estimate, and the rows
// must partition the run in time.
func TestPhaseEnergyReconciles(t *testing.T) {
	p := analyzeFFBP(t)
	sum := profile.SumEnergy(p.Phases)
	whole := energy.EpiphanyBreakdown(p.Total, p.Seconds)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"compute", sum.ComputeJ, whole.ComputeJ},
		{"localmem", sum.LocalMemJ, whole.LocalMemJ},
		{"noc", sum.NoCJ, whole.NoCJ},
		{"elink", sum.ELinkJ, whole.ELinkJ},
		{"static", sum.StaticJ, whole.StaticJ},
		{"total", sum.Total(), whole.Total()},
	} {
		if diff := math.Abs(c.got - c.want); diff > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Errorf("%s: phase rows sum to %.6e J, whole-run estimate is %.6e J", c.name, c.got, c.want)
		}
	}

	var prev float64
	for i, ph := range p.Phases {
		if math.Abs(ph.Start-prev) > 1e-6 {
			t.Errorf("phase row %d starts at %.0f, previous ended at %.0f", i, ph.Start, prev)
		}
		prev = ph.End
	}
	if math.Abs(prev-p.RunCycles) > 1e-6 {
		t.Errorf("phase rows end at %.0f, run is %.0f cycles", prev, p.RunCycles)
	}
	// FFBP's merge phases move every intermediate image over the eLink:
	// at least one phase must be bandwidth-bound in both views.
	var modelBW, roofBW bool
	for _, ph := range p.Phases {
		modelBW = modelBW || ph.Bound == "bandwidth"
		roofBW = roofBW || (ph.Index >= 0 && ph.Roofline.Bound() == "bandwidth")
	}
	if !modelBW || !roofBW {
		t.Errorf("no bandwidth-bound phase (contention model: %v, roofline: %v)", modelBW, roofBW)
	}
}

// linkWorkload builds a two-core producer/consumer run where the consumer
// demonstrably waits on the link, plus a bandwidth-bound barrier phase.
func linkWorkload(t *testing.T) *emu.Chip {
	t.Helper()
	ch := emu.New(emu.E16G3())
	tr := obs.NewTracer(1e9)
	ch.SetTracer(tr)
	ext, err := machine.NewBufC(ch.Ext(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	link := ch.Connect(0, 5, 2) // (0,0) -> (1,1): two physical hops
	ch.Run(16, func(c *emu.Core) {
		if c.ID == 0 {
			c.Charge(machine.Ops{FMA: 5000}) // producer computes, consumer waits on the link
			local, err := machine.NewBufC(c.Bank(2), 64)
			if err != nil {
				t.Error(err)
				return
			}
			link.Send(c, local.Data[:32])
		}
		if c.ID == 5 {
			link.Recv(c)
		}
		// Everyone floods the off-chip channel so the closing barrier is
		// bandwidth-bound.
		for i := 0; i < 40; i++ {
			ext.Store(c, c.ID*64+i, 1)
		}
		c.Barrier()
	})
	return ch
}

func TestCriticalPathFollowsLinkAndDrain(t *testing.T) {
	ch := linkWorkload(t)
	p, err := profile.AnalyzeChip(ch)
	if err != nil {
		t.Fatal(err)
	}
	if p.Critical.ByCause["ext.drain"] <= 0 {
		t.Errorf("bandwidth-bound barrier contributed no ext.drain; causes: %v", p.Critical.ByCause)
	}
	// The consumer's link wait must appear, and the chain must cross from
	// the consumer's track back onto the producer's.
	if p.Critical.ByCause["stall.link"] <= 0 {
		t.Errorf("no stall.link on the path; causes: %v", p.Critical.ByCause)
	}
	var sawProducer, sawConsumer bool
	for _, s := range p.Critical.Segments {
		switch s.Track {
		case "core 0":
			sawProducer = true
		case "core 5":
			sawConsumer = true
		}
	}
	if !sawProducer || !sawConsumer {
		t.Errorf("path tracks producer=%v consumer=%v; segments: %+v",
			sawProducer, sawConsumer, p.Critical.Segments)
	}
	if sum := p.Critical.Cycles(); math.Abs(sum-p.RunCycles) > 0.01*p.RunCycles {
		t.Errorf("path sums to %.0f of %.0f cycles", sum, p.RunCycles)
	}
}

func TestHeatmapXYRouting(t *testing.T) {
	ch := linkWorkload(t)
	p, err := profile.AnalyzeChip(ch)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Heatmap
	if len(h.Links) != 1 || h.Links[0].Bytes == 0 {
		t.Fatalf("link stats: %+v", h.Links)
	}
	// Core 0 is (0,0), core 5 is (1,1): XY routing goes east then south.
	want := []profile.MeshEdge{
		{FromRow: 0, FromCol: 0, ToRow: 0, ToCol: 1, Bytes: h.Links[0].Bytes},
		{FromRow: 0, FromCol: 1, ToRow: 1, ToCol: 1, Bytes: h.Links[0].Bytes},
	}
	if len(h.MeshEdges) != 2 || h.MeshEdges[0] != want[0] || h.MeshEdges[1] != want[1] {
		t.Errorf("mesh edges = %+v, want %+v", h.MeshEdges, want)
	}
	if h.MaxEdgeBytes() != h.Links[0].Bytes {
		t.Errorf("MaxEdgeBytes = %d", h.MaxEdgeBytes())
	}
	// All 16 cores ran; every cell must carry a busy fraction in [0, 1].
	for i, b := range h.CoreBusy {
		if b < 0 || b > 1 {
			t.Errorf("core %d busy fraction %v", i, b)
		}
	}
}

func TestWriteTextReport(t *testing.T) {
	p := analyzeFFBP(t)
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"critical path", "per-phase energy attribution", "mesh heatmap",
		"compute", "cause", "flop/cy", "total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("drop warning printed without drops:\n%s", out)
	}
}

func TestWriteTextReportWarnsOnDrops(t *testing.T) {
	ch := emu.New(emu.E16G3())
	tr := obs.NewTracer(1e9)
	tr.SetCapacity(2)
	ch.SetTracer(tr)
	ch.Run(2, func(c *emu.Core) {
		for i := 0; i < 8; i++ {
			c.Charge(machine.Ops{FMA: 10})
			c.Barrier()
		}
	})
	p, err := profile.AnalyzeChip(ch)
	if err != nil {
		t.Fatal(err)
	}
	if p.DroppedSpans == 0 {
		t.Fatal("workload did not overflow the 2-span rings")
	}
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "WARNING") {
		t.Errorf("no drop warning in report:\n%s", buf.String())
	}
}

func TestWriteHTMLReport(t *testing.T) {
	p := analyzeFFBP(t)
	var buf bytes.Buffer
	if err := p.WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "Critical path", "Per-phase energy attribution",
		"Mesh heatmap", "</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
	if strings.Contains(out, "http://") || strings.Contains(out, "https://") ||
		strings.Contains(out, "<script") {
		t.Error("HTML report is not self-contained")
	}
}

// TestProfileThroughput measures the analyzer's span throughput on the
// traced 16-core FFBP run and, when PROFBENCH_OUT names a directory,
// records it as a BENCH_profile.json envelope — the `make profbench`
// target. Wall-clock figures are host-dependent and recorded, not
// asserted; the deterministic trace shape (spans, cycles) is what the
// benchdiff gate compares.
func TestProfileThroughput(t *testing.T) {
	out := os.Getenv("PROFBENCH_OUT")
	if out == "" {
		t.Skip("PROFBENCH_OUT not set")
	}
	ch := tracedFFBP()
	var spans int
	for _, tk := range ch.Tracer().Tracks() {
		spans += tk.Len()
	}

	const iters = 5
	var p *profile.Profile
	start := time.Now()
	for i := 0; i < iters; i++ {
		var err error
		p, err = profile.AnalyzeChip(ch)
		if err != nil {
			t.Fatal(err)
		}
	}
	sec := time.Since(start).Seconds() / iters
	t.Logf("analyzed %d spans in %.3fs (%.0f spans/s, %d path segments)",
		spans, sec, float64(spans)/sec, len(p.Critical.Segments))

	env := bench.Result{
		Name: "profile", Title: "Trace analyzer throughput (16-core FFBP)",
		Pulses: report.Small().Params.NumPulses, Bins: report.Small().Params.NumBins,
		Data: struct {
			Cores          int     `json:"cores"`
			Spans          int     `json:"spans"`
			RunCycles      float64 `json:"run_cycles"`
			PathSegments   int     `json:"path_segments"`
			PathCauses     int     `json:"path_causes"`
			PhaseRows      int     `json:"phase_rows"`
			HostCPUs       int     `json:"host_cpus"`
			AnalyzeSeconds float64 `json:"analyze_seconds"`
			SpansPerSec    float64 `json:"spans_per_sec"`
		}{
			Cores: p.Cores, Spans: spans, RunCycles: p.RunCycles,
			PathSegments: len(p.Critical.Segments), PathCauses: len(p.Critical.ByCause),
			PhaseRows: len(p.Phases), HostCPUs: runtime.GOMAXPROCS(0),
			AnalyzeSeconds: sec, SpansPerSec: float64(spans) / sec,
		},
	}
	b, err := bench.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	path, err := bench.WriteFileRaw(out, env.Name, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
