// Top-level benchmark suite: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md's experiment index). Each benchmark
// reruns the corresponding experiment on the machine models; wall-clock
// ns/op measures the simulator, while the custom metrics report the
// *modeled* quantities the paper tabulates (model_ms, px_per_s,
// speedup_x, ratio_x).
//
// Run everything:   go test -bench=. -benchmem
// Paper scale:      go test -bench=Table1 -benchtime=1x
package sarmany_test

import (
	"context"
	"testing"

	"sarmany"
	"sarmany/internal/bench"
	"sarmany/internal/ffbp"
	"sarmany/internal/gbp"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// benchCfg returns the workload for benchmarks: the full paper scale in
// normal runs, reduced under -short.
func benchCfg(b *testing.B) report.Config {
	b.Helper()
	if testing.Short() {
		return report.Small()
	}
	return report.Default()
}

// BenchmarkTable1 reruns each implementation row of the paper's Table I,
// one sub-benchmark per report.Impls row, named by its -kernel name.
func BenchmarkTable1(b *testing.B) {
	cfg := benchCfg(b)
	in := report.NewInputs(cfg)
	for _, im := range report.Impls() {
		b.Run(im.Kernel, func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				m := im.NewMachine(cfg)
				if _, err := im.Run(m, cfg, in); err != nil {
					b.Fatal(err)
				}
				sec = m.Seconds()
			}
			b.ReportMetric(sec*1e3, "model_ms")
			b.ReportMetric(in.Pixels(im.Study)/sec, "px_per_s")
		})
	}
}

// BenchmarkEnergy reruns the Sec. VI-A energy-efficiency comparison
// (throughput per watt of parallel Epiphany vs sequential Intel; paper:
// 38x for FFBP, 78x for autofocus).
func BenchmarkEnergy(b *testing.B) {
	cfg := benchCfg(b)
	var tab *report.Table1
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = report.RunTable1(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("report", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tab
		}
		b.ReportMetric(tab.FFBPEnergyRatio, "ffbp_ratio_x")
		b.ReportMetric(tab.AutofocusEnergyRatio, "autofocus_ratio_x")
	})
}

// BenchmarkFigure7 regenerates the Fig. 7 image set and reports the
// quality relations the paper states (GBP sharper than FFBP; the two FFBP
// implementations equivalent).
func BenchmarkFigure7(b *testing.B) {
	cfg := report.Small() // GBP at paper scale is minutes; Small keeps CI fast
	var res bench.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = bench.RunFigure7(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GBPSharpness, "gbp_sharpness")
	b.ReportMetric(res.FFBPSharpness, "ffbp_sharpness")
	b.ReportMetric(res.IntelEpiphanyCorr, "intel_epi_corr")
}

// BenchmarkScaling measures parallel FFBP vs core count (1..64), the
// ablation behind the paper's 64-core outlook.
func BenchmarkScaling(b *testing.B) {
	cfg := report.Small()
	var pts []bench.ScalingPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.RunScaling(context.Background(), cfg, []int{1, 2, 4, 8, 16, 32, 64})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		if pt.Cores == 16 {
			b.ReportMetric(pt.Speedup, "speedup16_x")
		}
		if pt.Cores == 64 {
			b.ReportMetric(pt.Speedup, "speedup64_x")
		}
	}
}

// BenchmarkBandwidthRatio sweeps the off-chip bandwidth, showing FFBP
// bandwidth-bound and the autofocus pipeline insensitive (paper Sec. VI's
// on-chip-vs-off-chip bandwidth argument).
func BenchmarkBandwidthRatio(b *testing.B) {
	cfg := report.Small()
	var pts []bench.BandwidthPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.RunBandwidth(context.Background(), cfg, []float64{0.25, 1, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Sensitivity: time(low BW) / time(high BW).
	b.ReportMetric(pts[0].FFBPSeconds/pts[2].FFBPSeconds, "ffbp_sensitivity_x")
	b.ReportMetric(pts[0].AFSeconds/pts[2].AFSeconds, "autofocus_sensitivity_x")
}

// BenchmarkInterpolation measures FFBP quality per interpolation kernel
// against the GBP reference (the paper's image-quality discussion).
func BenchmarkInterpolation(b *testing.B) {
	cfg := report.Small()
	var pts []bench.InterpPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.RunInterp(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.ReportMetric(pt.GBPCorr, pt.Kind.String()+"_gbp_corr")
	}
}

// BenchmarkPipelines measures autofocus throughput vs pipeline replicas
// on the 64-core device (the Sec. VII outlook applied to the MPMD
// mapping).
func BenchmarkPipelines(b *testing.B) {
	cfg := report.Small()
	var pts []bench.PipelinePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.RunPipelines(context.Background(), cfg, []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[1].Speedup, "pipes4_speedup_x")
}

// BenchmarkGBPvsFFBPModel compares the modeled sequential times of exact
// GBP and FFBP on the reference CPU — the paper's "FFBP is much faster
// than GBP".
func BenchmarkGBPvsFFBPModel(b *testing.B) {
	cfg := report.Small()
	var g, f float64
	for i := 0; i < b.N; i++ {
		var err error
		g, f, err = bench.RunGBPvsFFBP(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(g*1e3, "gbp_model_ms")
	b.ReportMetric(f*1e3, "ffbp_model_ms")
	b.ReportMetric(g/f, "ratio_x")
}

// BenchmarkMotivation reruns the Sec. I frequency-vs-time-domain argument
// (gain kept under a non-linear flight path).
func BenchmarkMotivation(b *testing.B) {
	cfg := report.Small()
	var r bench.MotivationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.RunMotivation(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RDAKept, "rda_kept")
	b.ReportMetric(r.FocusedFFBPKept, "focused_ffbp_kept")
	b.ReportMetric(r.MocompRDAKept, "mocomp_rda_kept")
}

// BenchmarkBases measures FFBP quality vs factorization base.
func BenchmarkBases(b *testing.B) {
	cfg := report.Small()
	cfg.Params.NumPulses = 256
	cfg.Box = report.DefaultBox(cfg.Params)
	var pts []bench.BasePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bench.RunBases(context.Background(), cfg, []int{2, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Sharpness, "base2_sharpness")
	b.ReportMetric(pts[1].Sharpness, "base4_sharpness")
}

// BenchmarkHostFFBP measures the real (wall-clock) host implementation —
// the library's own throughput rather than the model's.
func BenchmarkHostFFBP(b *testing.B) {
	p := sarmany.DefaultParams()
	p.NumPulses = 256
	p.NumBins = 241
	p.R0 = 500
	box := sarmany.SceneBox{UMin: -40, UMax: 40, YMin: 510, YMax: 610, ThetaPad: 0.05}
	data := sarmany.Simulate(p, sarmany.SixTargetScene(p), nil)
	for _, kind := range []interp.Kind{interp.Nearest, interp.Cubic} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sarmany.FFBP(data, p, box, kind, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHostGBPvsFFBP contrasts the real cost of exact GBP with FFBP —
// the complexity gap that motivates factorization.
func BenchmarkHostGBPvsFFBP(b *testing.B) {
	p := sarmany.DefaultParams()
	p.NumPulses = 128
	p.NumBins = 161
	p.R0 = 500
	box := geom.SceneBox{UMin: -25, UMax: 25, YMin: 510, YMax: 570, ThetaPad: 0.05}
	data := sar.Simulate(p, sar.SixTargetScene(p), nil)
	grid := box.GridFor(geom.Aperture{Center: 0, Length: p.ApertureLength()},
		p.NumPulses, p.NumBins, p.R0, p.DR)
	b.Run("GBP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gbp.Image(data, p, grid, gbp.Config{Interp: interp.Nearest})
		}
	})
	b.Run("FFBP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ffbp.Image(data, p, box, ffbp.Config{Interp: interp.Nearest}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
