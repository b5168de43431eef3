package bench

import (
	"context"
	"os"
	"testing"

	"sarmany/internal/report"
)

// TestKernelThroughput measures the fused back-projection hot paths
// against their retained references at paper scale (1024 pulses x 1001
// bins) and, when KERNELBENCH_OUT names a directory, records the result
// as a BENCH_kernels.json envelope — the `make kernelbench` target.
// Without the variable the measurement is skipped to keep the regular
// test suite fast. The deterministic leaves (gbp_equiv_ok, bit_identical,
// shape counts) gate in benchdiff; the throughput leaves are advisory but
// asserted loosely here: the fused paths must not be slower than the
// references, or the fusion has regressed into pure complexity.
func TestKernelThroughput(t *testing.T) {
	out := os.Getenv("KERNELBENCH_OUT")
	if out == "" {
		t.Skip("KERNELBENCH_OUT not set")
	}
	cfg := report.Default()
	res, err := RunKernels(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GBPEquivOK {
		t.Errorf("fused GBP image out of the pinned ULP bound vs reference")
	}
	if res.GBPSpeedup < 1 {
		t.Errorf("fused GBP slower than reference: %.2fx", res.GBPSpeedup)
	}
	t.Logf("GBP: ref %.2f Mpx/s, fused %.2f Mpx/s (%.2fx)",
		res.GBPRefPixelsPerSec/1e6, res.GBPFusedPixelsPerSec/1e6, res.GBPSpeedup)
	for _, m := range res.Merges {
		if !m.BitIdentical {
			t.Errorf("merge stage %d: fused output not bit-identical to reference", m.Stage)
		}
		t.Logf("merge %d: %d parents, %d px, ref %.2f Mpx/s, fused %.2f Mpx/s (%.2fx)",
			m.Stage, m.Parents, m.Pixels, m.RefPixelsPerSec/1e6,
			m.FusedPixelsPerSec/1e6, m.Speedup)
	}

	env := Result{
		Name: "kernels", Title: "Fused kernel throughput",
		Pulses: cfg.Params.NumPulses, Bins: cfg.Params.NumBins,
		Data: res,
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
