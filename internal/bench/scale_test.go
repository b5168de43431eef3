package bench

import (
	"context"
	"os"
	"testing"

	"sarmany/internal/autofocus"
	"sarmany/internal/emu"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// TestScaleShape runs the scale sweep's machinery on a reduced workload
// and two small topologies, checking the per-point bookkeeping: core and
// chip counts, pipeline sizing, base-relative speedups, positive modeled
// energy, and a green conformance verdict on every topology.
func TestScaleShape(t *testing.T) {
	cfg := report.Small()
	afCfg := cfg
	afCfg.Pairs = 8
	wl := scaleWorkload{
		p:      cfg.Params,
		box:    cfg.Box,
		data:   sar.Simulate(cfg.Params, cfg.Targets, nil),
		pairs:  report.AutofocusWorkload(afCfg),
		shifts: autofocus.RangeSweep(-1.5, 1.5, 3),
	}

	pts, err := runScale(context.Background(), wl, []scaleTopo{
		{emu.E16G3(), 16},
		{emu.E16G3().WithChips(1, 2), 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	want := []struct {
		cores, chips, pipes int
		mesh                string
	}{
		{16, 1, 1, "4x4"},
		{32, 2, 2, "1x2 chips of 4x4"},
	}
	for i, pt := range pts {
		if pt.Cores != want[i].cores || pt.Chips != want[i].chips ||
			pt.Pipelines != want[i].pipes || pt.Mesh != want[i].mesh {
			t.Errorf("point %d = %+v; want cores=%d chips=%d pipes=%d mesh=%q",
				i, pt, want[i].cores, want[i].chips, want[i].pipes, want[i].mesh)
		}
		if pt.FFBPSeconds <= 0 || pt.AFSeconds <= 0 {
			t.Errorf("point %d: non-positive modeled time: %+v", i, pt)
		}
		if pt.FFBPEnergyJ <= 0 || pt.AFEnergyJ <= 0 {
			t.Errorf("point %d: non-positive modeled energy: %+v", i, pt)
		}
		if !pt.ConformOK {
			t.Errorf("point %d (%s): conformance check failed", i, pt.Mesh)
		}
	}
	if pts[0].FFBPSpeedup != 1 || pts[0].AFSpeedup != 1 {
		t.Errorf("first point speedups = %v/%v; want 1/1", pts[0].FFBPSpeedup, pts[0].AFSpeedup)
	}
	if pts[1].FFBPSpeedup <= 1 {
		t.Errorf("32-core FFBP speedup = %v; want > 1 (twice the cores, twice the channels)",
			pts[1].FFBPSpeedup)
	}
	if pts[1].AFSpeedup <= 1 {
		t.Errorf("2-pipeline autofocus speedup = %v; want > 1", pts[1].AFSpeedup)
	}
}

// TestScaleBench runs the full sweep — 64, 256 and 1024 cores, the last a
// 2x2 eLink-bridged array — and, when SCALEBENCH_OUT names a directory,
// records the result as a BENCH_scale.json envelope (the `make
// scalebench` target). Without the variable it is skipped to keep the
// regular suite fast. Everything in the envelope is modeled simulator
// output, so all of it gates in benchdiff.
func TestScaleBench(t *testing.T) {
	out := os.Getenv("SCALEBENCH_OUT")
	if out == "" {
		t.Skip("SCALEBENCH_OUT not set")
	}
	cfg := report.Default()
	pts, err := RunScale(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCores := []int{64, 256, 1024}
	if len(pts) != len(wantCores) {
		t.Fatalf("got %d points, want %d", len(pts), len(wantCores))
	}
	for i, pt := range pts {
		if pt.Cores != wantCores[i] {
			t.Errorf("point %d cores = %d, want %d", i, pt.Cores, wantCores[i])
		}
		if !pt.ConformOK {
			t.Errorf("%s: conformance check failed", pt.Mesh)
		}
		t.Logf("%4d cores (%s): ffbp %.1f ms (%.2fx, %.3f J), %d pipes af %.3f ms (%.2fx, %.4f J)",
			pt.Cores, pt.Mesh, pt.FFBPSeconds*1e3, pt.FFBPSpeedup, pt.FFBPEnergyJ,
			pt.Pipelines, pt.AFSeconds*1e3, pt.AFSpeedup, pt.AFEnergyJ)
	}
	if last := pts[len(pts)-1]; last.FFBPSpeedup <= pts[0].FFBPSpeedup {
		t.Errorf("1024-core FFBP speedup %v not above the 64-core base (four SDRAM channels)", last.FFBPSpeedup)
	}

	// The envelope records the sweep's pinned workload scale, not the
	// config's — RunScale fixes its input so the baseline is comparable
	// across configurations.
	env := Result{
		Name: "scale", Title: "Manycore scale-up sweep",
		Pulses: scalePulses, Bins: scaleBins,
		Data: pts,
	}
	b, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	path, err := WriteFileRaw(out, env.Name, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
