package report

import (
	"context"
	"math"
	"math/bits"
	"testing"

	"sarmany/internal/geom"
)

// opCounts is what one Table I row charges: the six operation kinds, the
// loads the kernel issues itself (not its DMA bursts) and its stores to
// memory (not its link sends).
type opCounts struct {
	FMA, Flop, IOp, Div, Sqrt, Trig uint64
	Loads, Stores                   uint64
}

// rowOps reads a row's charges back from the machine it ran on. Both
// parallel kernels DMA only out of external memory, so every DMA
// transfer is one of the chip's external reads.
func rowOps(m Machine) opCounts {
	if m.CPU != nil {
		s := m.CPU.Stats
		return opCounts{s.FMA, s.Flop, s.IOp, s.Div, s.Sqrt, s.Trig, s.Loads, s.Stores}
	}
	s := m.Chip.TotalStats()
	return opCounts{s.FMA, s.Flop, s.IOp, s.Div, s.Sqrt, s.Trig,
		s.LocalLoads + s.RemoteReads + s.ExtReads - s.DMATransfers, s.LocalStores + s.ExtWrites}
}

// wantFFBPOps is the closed-form charge of one FFBP run at cfg, the same
// on all three machines. With P pulses, B range bins and M = log2 P
// merges there are N0 = P*B stage-0 pixels, Nm = M*P*B merge pixels and
// Nb = M*P merge beams, and
//   - a stage-0 pixel charges FMA 5, IOp 2, Trig 1, one load, one store;
//   - a merge beam's hoisted setup charges FMA 4, IOp 4, Trig 2;
//   - a merge pixel charges FMA 15, Flop 6, IOp 8, Div 2, Sqrt 2, Trig 2
//     and one store, and loads each of its two child samples whose
//     rounded indices fall inside the child's grid.
//
// At paper scale (P 1024, B 1001) that is FMA 158,919,680, and
// 20,189,502 of the 20,500,480 child samples are in range.
func wantFFBPOps(cfg Config) opCounts {
	p := cfg.Params
	np, nbins := uint64(p.NumPulses), uint64(p.NumBins)
	merges := uint64(bits.Len(uint(p.NumPulses)) - 1)
	n0, nm, nb := np*nbins, merges*np*nbins, merges*np
	return opCounts{
		FMA: 15*nm + 4*nb + 5*n0, Flop: 6 * nm, IOp: 8*nm + 4*nb + 2*n0,
		Div: 2 * nm, Sqrt: 2 * nm, Trig: 2*nm + 2*nb + n0,
		Loads: n0 + inRangeSamples(cfg), Stores: nm + n0,
	}
}

// inRangeSamples counts the merge samples whose rounded child indices
// fall inside the child's polar grid: the nearest-neighbour lookups FFBP
// loads. It walks the factorization on its own, from geom.Stage0,
// geom.MergeStage, SceneBox.GridFor and geom.ChildIndices.
func inRangeSamples(cfg Config) uint64 {
	p, box := cfg.Params, cfg.Box
	in := func(g geom.PolarGrid, ti, ri float64) bool {
		t, r := int(math.Round(ti)), int(math.Round(ri))
		return t >= 0 && t < g.NTheta && r >= 0 && r < g.NR
	}
	var n uint64
	idx := make([]float64, 4*p.NumBins)
	kids := geom.Stage0(p.NumPulses, -p.ApertureLength()/2, p.PulseSpacing)
	for ntheta := 1; len(kids) > 1; ntheta *= 2 {
		parents := geom.MergeStage(kids)
		for j, a := range parents {
			pg := box.GridFor(a, 2*ntheta, p.NumBins, p.R0, p.DR)
			g0 := box.GridFor(kids[2*j], ntheta, p.NumBins, p.R0, p.DR)
			g1 := box.GridFor(kids[2*j+1], ntheta, p.NumBins, p.R0, p.DR)
			for bt := 0; bt < pg.NTheta; bt++ {
				geom.ChildIndices(idx, pg, bt, kids[2*j].Length, g0, g1, 0, 0)
				for c := idx; len(c) > 0; c = c[4:] {
					if in(g0, c[0], c[1]) {
						n++
					}
					if in(g1, c[2], c[3]) {
						n++
					}
				}
			}
		}
		kids = parents
	}
	return n
}

// wantAutofocusOps is the closed-form charge of the autofocus criterion
// over cfg's pairs and shifts. Per pair, both 6x6 blocks are loaded (IOp
// 1 per pixel). Per shift, each block is resampled: 6 range offsets
// (FMA 1 each) and 18 range plus 9 beam Neville windows (IOp 2, FMA 24,
// Flop 6 each); the correlation then sums 9 terms (FMA 5 each). The
// pipeline computes every range offset on all three of a block's range
// cores and stores each criterion. It also loads every double word a
// link delivers: per pair, a block's two downstream range cores receive
// it whole; per shift, the six beam cores receive 6 range values each
// and the correlation core 3 beam values from each of them.
func wantAutofocusOps(cfg Config, pipeline bool) opCounts {
	pairs, evals := uint64(cfg.Pairs), uint64(cfg.Pairs*cfg.Shifts)
	const windows = 2 * (18 + 9)
	offsets := uint64(2 * 6)
	blockLoads := 2 * 36 * pairs
	o := opCounts{Loads: blockLoads}
	if pipeline {
		offsets *= 3
		o.Stores = evals
		o.Loads += 2*2*36*pairs + 6*(6+3)*evals
	}
	o.FMA = evals * (offsets + 24*windows + 5*9)
	o.Flop = evals * 6 * windows
	o.IOp = evals*2*windows + blockLoads
	return o
}

// checkRowOps compares every row's charges with the closed forms.
func checkRowOps(t *testing.T, cfg Config, got map[string]opCounts) {
	t.Helper()
	ffbp := wantFFBPOps(cfg)
	for _, im := range impls {
		want := ffbp
		if im.Study == Autofocus {
			want = wantAutofocusOps(cfg, im.Kind == EpiphanyChip)
		}
		if got[im.Kernel] != want {
			t.Errorf("%s charged %+v\nwant          %+v", im.Kernel, got[im.Kernel], want)
		}
	}
}

// runTable1Ops runs Table I at cfg and returns each row's charges by
// kernel name.
func runTable1Ops(t *testing.T, cfg Config) (*Table1, map[string]opCounts) {
	t.Helper()
	got := map[string]opCounts{}
	tab, err := runTable1(context.Background(), cfg, func(im Impl, m Machine) { got[im.Kernel] = rowOps(m) })
	if err != nil {
		t.Fatal(err)
	}
	return tab, got
}

// TestTable1SmallOpCounts checks every row's charged operations at
// Small() against the closed forms; TestTable1PaperShape does the same
// at paper scale.
func TestTable1SmallOpCounts(t *testing.T) {
	cfg := Small()
	_, got := runTable1Ops(t, cfg)
	checkRowOps(t, cfg, got)
}
