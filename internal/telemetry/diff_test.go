package telemetry

import (
	"testing"
	"time"

	"sarmany/internal/bench"
)

// kernelsRun is a kernels envelope payload whose every wall-clock leaf
// scales with s while the shape counts and equivalence flags stay put.
func kernelsRun(s float64) bench.KernelsResult {
	return bench.KernelsResult{
		GBPBeams: 16, GBPPixels: 16016,
		GBPRefSeconds: 2 * s, GBPFusedSeconds: s,
		GBPRefPixelsPerSec: 1 / (2 * s), GBPFusedPixelsPerSec: 1 / s,
		GBPSpeedup: 2 + s, GBPEquivOK: true,
		Merges: []bench.KernelMergePoint{{
			Stage: 1, Parents: 512, Pixels: 1025024,
			RefSeconds: 2 * s, FusedSeconds: s,
			RefPixelsPerSec: 1 / (2 * s), FusedPixelsPerSec: 1 / s,
			Speedup: 2 + s, BitIdentical: true,
		}},
	}
}

func basesRun(ms float64) []bench.BasePoint {
	return []bench.BasePoint{
		{Base: 2, Levels: 8, Sharpness: 48.5, GBPCorr: 0.96, HostMS: ms},
		{Base: 4, Levels: 4, Sharpness: 51.2, GBPCorr: 0.97, HostMS: 2 * ms},
	}
}

// TestDiffEntriesEnvelopeAdvisory diffs ledger entries whose embedded
// envelopes differ in one kind of leaf only: the envelope's own
// advisory leaves (bench.Advisory) report without gating, and a modeled
// leaf gates even where another envelope's same-named leaf would not.
func TestDiffEntriesEnvelopeAdvisory(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name     string
		a, b     bench.Result
		advisory int
		gating   int
	}{
		{"kernels_wall_clock",
			bench.Result{Name: "kernels", Data: kernelsRun(1)},
			bench.Result{Name: "kernels", Data: kernelsRun(3)},
			10, 0},
		{"bases_host_ms",
			bench.Result{Name: "bases", Data: basesRun(120)},
			bench.Result{Name: "bases", Data: basesRun(180)},
			2, 0},
		{"gbp_vs_ffbp_speedup",
			bench.Result{Name: "gbp_vs_ffbp", Data: bench.GBPFFBPResult{GBPSeconds: 0.2, FFBPSeconds: 0.025, Speedup: 8}},
			bench.Result{Name: "gbp_vs_ffbp", Data: bench.GBPFFBPResult{GBPSeconds: 0.2, FFBPSeconds: 0.025, Speedup: 9}},
			0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := testEntry(t0, 1e6), testEntry(t0, 1e6)
			var err error
			if a.Envelope, err = bench.Marshal(tc.a); err != nil {
				t.Fatal(err)
			}
			if b.Envelope, err = bench.Marshal(tc.b); err != nil {
				t.Fatal(err)
			}
			fs, err := DiffEntries(a, b, bench.DiffOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := bench.Regressions(fs); got != tc.gating || len(fs)-got != tc.advisory {
				t.Errorf("%d regressions and %d advisory, want %d and %d: %v",
					got, len(fs)-got, tc.gating, tc.advisory, fs)
			}
		})
	}
}
