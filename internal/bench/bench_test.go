package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sarmany/internal/interp"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

func TestRunFigure7Relations(t *testing.T) {
	res, imgs, err := RunFigure7(context.Background(), report.Small())
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs {
		if img == nil || img.Rows == 0 || img.Cols == 0 {
			t.Fatalf("image %d empty", i)
		}
	}
	// Paper Fig. 7 relations: GBP sharper than nearest-FFBP; the two FFBP
	// implementations equivalent (identical arithmetic here).
	if res.GBPSharpness <= res.FFBPSharpness {
		t.Errorf("GBP sharpness %v not above FFBP %v", res.GBPSharpness, res.FFBPSharpness)
	}
	if res.IntelEpiphanyCorr < 0.999 {
		t.Errorf("Intel/Epiphany correlation %v", res.IntelEpiphanyCorr)
	}
	if res.CrossCorr <= 0.5 || res.CrossCorr > 1.0001 {
		t.Errorf("GBP/FFBP correlation %v implausible", res.CrossCorr)
	}
}

func TestFigure7WritesFiles(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := Experiment(context.Background(), "fig7", &buf, report.Small(), "", dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wrote " + dir, "sharpness", "correlation"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, name := range []string{"fig7a_raw.png", "fig7b_gbp.png", "fig7c_ffbp_intel.png", "fig7d_ffbp_epiphany.png"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}

func TestRunScalingMonotone(t *testing.T) {
	pts, err := RunScaling(context.Background(), report.Small(), []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// More cores never slower.
	for i := 1; i < len(pts); i++ {
		if pts[i].Seconds > pts[i-1].Seconds*1.001 {
			t.Errorf("cores %d slower (%v s) than cores %d (%v s)",
				pts[i].Cores, pts[i].Seconds, pts[i-1].Cores, pts[i-1].Seconds)
		}
	}
	if pts[0].Speedup != 1 {
		t.Errorf("base speedup %v", pts[0].Speedup)
	}
	if pts[2].Speedup < 2 {
		t.Errorf("16-core speedup %v", pts[2].Speedup)
	}
}

func TestRunScalingGrowsMesh(t *testing.T) {
	pts, err := RunScaling(context.Background(), report.Small(), []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Cores != 64 {
		t.Errorf("cores %d", pts[0].Cores)
	}
}

func TestRunBandwidthShape(t *testing.T) {
	pts, err := RunBandwidth(context.Background(), report.Small(), []float64{0.25, 4})
	if err != nil {
		t.Fatal(err)
	}
	// FFBP must be clearly bandwidth-sensitive; the streaming autofocus
	// pipeline much less so (paper Sec. VI).
	ffbpSens := pts[0].FFBPSeconds / pts[1].FFBPSeconds
	afSens := pts[0].AFSeconds / pts[1].AFSeconds
	if ffbpSens < 2 {
		t.Errorf("FFBP bandwidth sensitivity %v, want >= 2", ffbpSens)
	}
	if afSens >= ffbpSens {
		t.Errorf("autofocus sensitivity %v not below FFBP %v", afSens, ffbpSens)
	}
}

func TestRunInterpOrdering(t *testing.T) {
	pts, err := RunInterp(context.Background(), report.Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	byKind := map[interp.Kind]InterpPoint{}
	for _, pt := range pts {
		byKind[pt.Kind] = pt
	}
	// Cubic tracks the GBP reference at least as well as nearest.
	if byKind[interp.Cubic].GBPCorr < byKind[interp.Nearest].GBPCorr-0.02 {
		t.Errorf("cubic GBP correlation %v well below nearest %v",
			byKind[interp.Cubic].GBPCorr, byKind[interp.Nearest].GBPCorr)
	}
}

func TestRunPipelinesScales(t *testing.T) {
	pts, err := RunPipelines(context.Background(), report.Small(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Speedup < 2.5 {
		t.Errorf("4-pipeline speedup %v, want near 4", pts[1].Speedup)
	}
}

func TestRunGBPvsFFBP(t *testing.T) {
	g, f, err := RunGBPvsFFBP(context.Background(), report.Small())
	if err != nil {
		t.Fatal(err)
	}
	// 128 pulses vs 7 merge levels: GBP must be several times slower.
	if g/f < 2 {
		t.Errorf("GBP/FFBP time ratio %v, want >= 2", g/f)
	}
}

func TestRunBases(t *testing.T) {
	pts, err := RunBases(context.Background(), report.Small(), []int{2, 4}) // 128 = 2^7... not a power of 4!
	if err == nil {
		// 128 is not a power of 4, so this must fail — unless the small
		// config changes; guard both ways.
		for _, pt := range pts {
			if pt.Base == 4 {
				t.Fatal("base 4 on 128 pulses should have failed")
			}
		}
	}
	// A power-of-4 configuration works for both bases.
	cfg := report.Small()
	cfg.Params.NumPulses = 256
	cfg.Box = report.DefaultBox(cfg.Params)
	pts, err = RunBases(context.Background(), cfg, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Levels != 8 || pts[1].Levels != 4 {
		t.Fatalf("points %+v", pts)
	}
	if pts[1].Sharpness < 0.8*pts[0].Sharpness {
		t.Errorf("base-4 sharpness %v well below base-2 %v", pts[1].Sharpness, pts[0].Sharpness)
	}
}

func TestBasesRejectsNonPowerBeforeSimulating(t *testing.T) {
	// The small config's 128 pulses are not a power of 4. The context is
	// already cancelled, so an experiment that simulated first would stop
	// at its first context check with context.Canceled instead.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Compute(ctx, "base", report.Small(), "")
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "base 4") {
		t.Fatalf("err %v, want the base-4 power check", err)
	}
}

func TestRunMotivationShape(t *testing.T) {
	cfg := report.Small()
	cfg.Params.NumPulses = 256
	cfg.Params.NumBins = 241
	cfg.Params.R0 = 500
	cfg.Box = report.DefaultBox(cfg.Params)
	cfg.Targets = []sar.Target{{U: 0, Y: cfg.Params.CenterRange(), Amp: 1}}
	r, err := RunMotivation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.RDAKept >= 0.9 {
		t.Errorf("RDA kept %v under path error; expected a clear loss", r.RDAKept)
	}
	if r.FocusedFFBPKept <= r.RDAKept {
		t.Errorf("autofocused FFBP kept %v, RDA %v — time domain should win", r.FocusedFFBPKept, r.RDAKept)
	}
	if r.MocompRDAKept < 0.85 {
		t.Errorf("motion-compensated RDA kept %v", r.MocompRDAKept)
	}
}

// TestTextDrivers runs every experiment once at reduced scale (base on
// the 256-pulse config TestRunBases uses, since 128 is not a power of
// 4) and pins what the experiment table promises for each key: the
// envelope's name, title and scale, a printed table, a replay from the
// marshaled envelope that prints the same text, and a decoder that
// restores the fresh run's data type.
func TestTextDrivers(t *testing.T) {
	base := report.Small()
	base.Params.NumPulses = 256
	base.Box = report.DefaultBox(base.Params)
	for _, tc := range []struct {
		key, name, title, want string
		cfg                    report.Config
		pulses, bins           int
	}{
		{"t1", "table1", "Table I and energy ratios", "FFBP Implementations", report.Small(), 128, 251},
		{"fig7", "fig7", "Figure 7 quality metrics", "sharpness", report.Small(), 128, 251},
		{"scaling", "scaling", "FFBP speedup vs core count", "cores", report.Small(), 128, 251},
		{"bw", "bandwidth", "Off-chip bandwidth sweep", "bytes/cycle", report.Small(), 128, 251},
		{"interp", "interp", "FFBP quality vs interpolation kernel", "kernel", report.Small(), 128, 251},
		{"pipes", "pipelines", "Autofocus pipeline replication", "pipelines", report.Small(), 128, 251},
		{"gbp", "gbp_vs_ffbp", "GBP vs FFBP complexity", "faster", report.Small(), 128, 251},
		{"base", "bases", "Factorization base ablation", "levels", base, 256, 251},
		{"rda", "motivation", "Frequency vs time domain", "coherent gain", report.Small(), 128, 251},
		{"upsample", "upsample", "Range oversampling ablation", "peak gain", report.Small(), 128, 251},
		{"chaos", "chaos", "Fault-severity degradation sweep", "severity", report.Small(), 128, 251},
		{"kernels", "kernels", "Fused kernel throughput", "fused Mpx/s", report.Small(), 128, 251},
		{"scale", "scale", "Manycore scale-up sweep", "conform", report.Small(), 1024, 251},
	} {
		t.Run(tc.key, func(t *testing.T) {
			res, err := Compute(context.Background(), tc.key, tc.cfg, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Name != tc.name || res.Title != tc.title || res.Pulses != tc.pulses || res.Bins != tc.bins {
				t.Errorf("envelope %q %q %dx%d, want %q %q %dx%d",
					res.Name, res.Title, res.Pulses, res.Bins, tc.name, tc.title, tc.pulses, tc.bins)
			}
			var fresh bytes.Buffer
			if err := PrintResult(&fresh, res); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(fresh.String(), tc.want) {
				t.Errorf("output missing %q: %q", tc.want, fresh.String())
			}

			b, err := Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var rr RawResult
			if err := json.Unmarshal(b, &rr); err != nil {
				t.Fatal(err)
			}
			var replay bytes.Buffer
			if err := PrintResult(&replay, Result{Name: rr.Name, Title: rr.Title, Data: rr.Data}); err != nil {
				t.Fatal(err)
			}
			if replay.String() != fresh.String() {
				t.Errorf("replay prints\n%s\nfresh run prints\n%s", replay.String(), fresh.String())
			}
			v, err := DecodeData(rr.Name, rr.Data)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := reflect.TypeOf(v), reflect.TypeOf(res.Data); got != want {
				t.Errorf("replay decodes to %v, fresh run holds %v", got, want)
			}
		})
	}
}
