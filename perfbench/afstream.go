package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"strings"

	"sarmany/internal/autofocus"
	"sarmany/internal/emu"
	"sarmany/internal/kernels"
)

// afPipelines is the replica count of af-stream's multi-pipeline run:
// four 13-core pipelines fill the 64-core device.
const afPipelines = 4

// afPairs generates n seeded autofocus block pairs: smooth complex
// blobs of random width and phase, the plus block displaced by a random
// sub-pixel shift in range and beam.
func afPairs(n int, seed int64) []kernels.BlockPair {
	rng := rand.New(rand.NewSource(seed))
	out := make([]kernels.BlockPair, n)
	for i := range out {
		w := 1.5 + 2*rng.Float64()
		r0, c0 := 2+rng.Float64(), 2+rng.Float64()
		dr, dc := 2*rng.Float64()-1, 2*rng.Float64()-1
		ph := cmplx.Rect(1, 2*math.Pi*rng.Float64())
		blob := func(r, c float64) complex64 {
			return complex64(complex(math.Exp(-(r*r+c*c)/w), 0) * ph)
		}
		for r := 0; r < autofocus.BlockSize; r++ {
			for c := 0; c < autofocus.BlockSize; c++ {
				out[i].Minus[r][c] = blob(float64(r)-r0, float64(c)-c0)
				out[i].Plus[r][c] = blob(float64(r)-r0-dr, float64(c)-c0-dc)
			}
		}
	}
	return out
}

// afInput is af-stream's set-up.
type afInput struct {
	pairs  []kernels.BlockPair
	shifts []autofocus.Shift
	scores [][]float64 // autofocus.Criterion of every pair and shift
}

// afCounts are the modeled counts of one pipeline run, which must repeat
// exactly from pass to pass.
type afCounts struct{ cycles, linkBlocks, linkBytes float64 }

func afRunCounts(ch *emu.Chip) afCounts {
	c := afCounts{cycles: ch.MaxCycles()}
	for _, m := range ch.Metrics().Snapshot() {
		if strings.HasPrefix(m.Name, "emu.link.") {
			switch {
			case strings.HasSuffix(m.Name, ".blocks"):
				c.linkBlocks += m.Value
			case strings.HasSuffix(m.Name, ".bytes"):
				c.linkBytes += m.Value
			}
		}
	}
	return c
}

var afWorkload = workload{
	name:   "af-stream",
	opSpan: "af_stream",
	layers: []layerMetric{
		{"kernels.af_par_s", "s"}, {"kernels.af_multi_s", "s"}, {"kernels.af_par.alloc_mb", "MB"},
		{"kernels.af_seq_s", "s"}, {"sim.handoff_ratio", "ratio"}, {"autofocus.search_s", "s"},
		{"emu.af_par.cycles", "cycles"}, {"emu.af_multi.cycles", "cycles"},
		{"emu.af_par.link.blocks", "count"}, {"emu.af_par.link.bytes", "bytes"},
	},
	run: runAF,
}

// runAF is af-stream: per operation, the whole seeded stream through one
// 13-core pipeline on E16G3 and through four pipelines on E64.
func runAF(cfg config) (*outcome, error) {
	n := 4096
	if cfg.tiny {
		n = 64
	}
	o := &outcome{}
	in, err := setup(cfg, o, func() (*afInput, error) {
		in := &afInput{pairs: afPairs(n, cfg.seed), shifts: autofocus.RangeSweep(-1.5, 1.5, 32)}
		in.scores = criterionScores(in.pairs, in.shifts)
		return in, nil
	})
	if err != nil {
		return nil, err
	}
	tr := cfg.tr
	var want [2]afCounts
	measure(cfg, o, func(i int) (float64, float64, error) {
		var par, multi *emu.Chip
		var sPar, sMulti [][]float64
		var errPar, errMulti error
		w := startWatch()
		op := tr.begin("af_stream", -1, i)
		tr.timed("kernels.af_par", op, i, func() {
			par = emu.New(emu.E16G3())
			sPar, errPar = kernels.ParAutofocus(par, in.pairs, in.shifts)
		})
		tr.timed("kernels.af_multi", op, i, func() {
			multi = emu.New(emu.E64())
			sMulti, errMulti = kernels.ParAutofocusMulti(multi, afPipelines, in.pairs, in.shifts)
		})
		tr.end(op)
		sec, allocB := w.stop()
		if errPar != nil || errMulti != nil {
			return sec, allocB, fmt.Errorf("autofocus: %v, %v", errPar, errMulti)
		}
		o.work += float64(2 * len(in.pairs) * len(in.shifts))
		if tr != nil {
			afTracedExtras(tr, in, i)
		}
		got := [2]afCounts{afRunCounts(par), afRunCounts(multi)}
		if i == 0 {
			want = got
		}
		for p := range in.pairs {
			if !slices.Equal(sPar[p], in.scores[p]) || !slices.Equal(sMulti[p], in.scores[p]) {
				return sec, allocB, fmt.Errorf("scores of pair %d differ from autofocus.Criterion", p)
			}
		}
		if got != want {
			return sec, allocB, fmt.Errorf("modeled counts %+v, first pass %+v", got, want)
		}
		return sec, allocB, nil
	})
	if tr != nil {
		m := map[string]float64{
			"kernels.af_par_s":        median(tr.durations("kernels.af_par")),
			"kernels.af_multi_s":      median(tr.durations("kernels.af_multi")),
			"kernels.af_par.alloc_mb": median(tr.allocs("kernels.af_par")) / 1e6,
			"kernels.af_seq_s":        median(tr.durations("kernels.af_seq")),
			"autofocus.search_s":      median(tr.durations("autofocus.search")),
			"emu.af_par.cycles":       want[0].cycles,
			"emu.af_multi.cycles":     want[1].cycles,
			"emu.af_par.link.blocks":  want[0].linkBlocks,
			"emu.af_par.link.bytes":   want[0].linkBytes,
		}
		m["sim.handoff_ratio"] = m["kernels.af_par_s"] / m["kernels.af_seq_s"]
		o.layers = m
	}
	return o, nil
}

// afTracedExtras times, outside the operation, the references its layer
// ratios need: the same stream's arithmetic charged on one Epiphany core
// (no pipeline hand-offs) and host autofocus.Search (no charging).
func afTracedExtras(tr *tracer, in *afInput, i int) {
	tr.timed("kernels.af_seq", -1, i, func() {
		ch := emu.New(emu.E16G3())
		_, _ = kernels.SeqAutofocus(ch.Cores[0], ch.Ext(), in.pairs, in.shifts) // checked by table1-paper
	})
	tr.timed("autofocus.search", -1, i, func() {
		for p := range in.pairs {
			_, _, _ = autofocus.Search(&in.pairs[p].Minus, &in.pairs[p].Plus, in.shifts) // shifts is never empty
		}
	})
}
