package kernels

import (
	"fmt"
	"math"
	"sync"

	"sarmany/internal/cf"
	"sarmany/internal/emu"
	"sarmany/internal/geom"
	"sarmany/internal/machine"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
)

// ffbpPlan precomputes the factorization structure shared by the FFBP
// kernels: the aperture list and polar grid of every stage.
type ffbpPlan struct {
	p      sar.Params
	box    geom.SceneBox
	stages [][]geom.Aperture  // stages[s][i]
	grids  [][]geom.PolarGrid // grids[s][i]
	k      float64            // 4*pi/lambda
}

func newFFBPPlan(p sar.Params, box geom.SceneBox, data *mat.C) (*ffbpPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if data.Rows != p.NumPulses || data.Cols != p.NumBins {
		return nil, fmt.Errorf("kernels: data is %dx%d, params say %dx%d",
			data.Rows, data.Cols, p.NumPulses, p.NumBins)
	}
	if p.NumPulses&(p.NumPulses-1) != 0 {
		return nil, fmt.Errorf("kernels: NumPulses %d is not a power of two", p.NumPulses)
	}
	pl := &ffbpPlan{p: p, box: box, k: 4 * math.Pi / p.Wavelength}
	aps := geom.Stage0(p.NumPulses, -p.ApertureLength()/2, p.PulseSpacing)
	ntheta := 1
	for {
		gs := make([]geom.PolarGrid, len(aps))
		for i, a := range aps {
			gs[i] = box.GridFor(a, ntheta, p.NumBins, p.R0, p.DR)
		}
		pl.stages = append(pl.stages, aps)
		pl.grids = append(pl.grids, gs)
		if len(aps) == 1 {
			break
		}
		aps = geom.MergeStage(aps)
		ntheta *= 2
	}
	return pl, nil
}

// numMerges returns the number of merge iterations (10 for 1024 pulses).
func (pl *ffbpPlan) numMerges() int { return len(pl.stages) - 1 }

// imageOff returns the element offset of subaperture i's image within a
// stage buffer at stage s (every stage packs NumPulses*NumBins elements).
func (pl *ffbpPlan) imageOff(s, i int) int {
	return i * pl.grids[s][0].NTheta * pl.p.NumBins
}

// stage0Pixel computes (and charges) one carrier-removal output of the
// initial stage: a_0(r_c) = d(r_c) * exp(+i*k*r_c). The arithmetic matches
// ffbp.InitialStage exactly.
func (pl *ffbpPlan) stage0Pixel(m machine.Machine, v complex64, c int) complex64 {
	// r = R0 + c*DR and the complex multiply (FMA 1+4); one sincos.
	m.Charge(machine.Ops{FMA: 1 + 4, Trig: 1})
	r := pl.p.R0 + float64(c)*pl.p.DR
	return v * cf.Expi(float32(pl.k*r))
}

// idxPool recycles the FFBP kernels' child-index scratch (a *[]float64)
// across runs, so sweeps of many short runs allocate none once warm; each
// buffer is held by one SeqFFBP call or one simulated core at a time.
var idxPool = sync.Pool{New: func() any { return new([]float64) }}

// getIdx returns a scratch of n float64s from idxPool.
func getIdx(n int) *[]float64 {
	p := idxPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// childIndices fills idx, 4*NumBins values, with the child indices of
// beam bt of parent j at merge s: host arithmetic that charges nothing.
func (pl *ffbpPlan) childIndices(idx []float64, s, j, bt int) {
	geom.ChildIndices(idx, pl.grids[s+1][j], bt, pl.stages[s][2*j].Length,
		pl.grids[s][2*j], pl.grids[s][2*j+1], 0, 0)
}

// mergeBeam computes (and charges) beam bt of parent j at merge s
// (children at stage s): the element combining of paper eq. 5 along one
// output beam, stored to dst. The minus and plus children are read from
// src0 and src1 starting at elements base0 and base1, which lets the
// caller choose local-bank or external storage. idx holds the beam's
// child indices from childIndices.
//
// The charges follow the paper's kernel: the hoisted per-beam setup once,
// then per pixel the range step and the cosine-theorem index generation,
// the two nearest-neighbour samples, the combining add and the store — in
// that order, which the modeled cycles depend on.
func (pl *ffbpPlan) mergeBeam(m machine.Machine, idx []float64, s, j, bt int,
	src0 *machine.BufC, base0 int, src1 *machine.BufC, base1 int, dst *machine.BufC) {
	m.Charge(beamSetup)
	pg := pl.grids[s+1][j]
	g0, g1 := pl.grids[s][2*j], pl.grids[s][2*j+1]
	out := pl.imageOff(s+1, j) + bt*pg.NR
	for bi := 0; bi < pg.NR; bi++ {
		c := (*[4]float64)(idx[4*bi:])
		m.Charge(toMinusLoad)
		v1 := sampleNN(m, src0, base0, g0, c[0], c[1])
		m.Charge(sampleLookup)
		v2 := sampleNN(m, src1, base1, g1, c[2], c[3])
		m.Charge(toStore)
		dst.Store(m, out+bi, v1+v2)
	}
}

// lookahead is how many beams ahead of SeqFFBP's charging loop its
// helper goroutine computes the child indices.
const lookahead = 4

// seqMerges runs SeqFFBP's merge iterations on m: merge s reads
// bufs[s%2] and writes the other buffer, and the final image's buffer is
// returned. One helper goroutine computes the beams' child indices, up to
// lookahead beams ahead, on scratch from idxPool; the caller's goroutine
// charges the beams in order. The helper exits on every return path, a
// panic inside m included.
func (pl *ffbpPlan) seqMerges(m machine.Machine, bufs [2]*machine.BufC) *machine.BufC {
	type beamIdx struct {
		s, j, bt int
		idx      *[]float64
	}
	// Both channels hold every scratch buffer at once, so only the
	// helper's receive from free and the caller's from ready can block.
	free := make(chan *[]float64, lookahead+1)
	for range cap(free) {
		free <- getIdx(4 * pl.p.NumBins)
	}
	ready, done := make(chan beamIdx, cap(free)), make(chan struct{})
	defer func() {
		close(done)
		for b := range ready { // until the helper has returned and closed it
			idxPool.Put(b.idx)
		}
		for len(free) > 0 {
			idxPool.Put(<-free)
		}
	}()
	go func() {
		defer close(ready)
		for s := 0; s < pl.numMerges(); s++ {
			for j := range pl.stages[s+1] {
				for bt := 0; bt < pl.grids[s+1][j].NTheta; bt++ {
					var idx *[]float64
					select {
					case idx = <-free:
					case <-done:
						return
					}
					pl.childIndices(*idx, s, j, bt)
					ready <- beamIdx{s, j, bt, idx}
				}
			}
		}
	}()
	for b := range ready {
		src := bufs[b.s%2]
		pl.mergeBeam(m, *b.idx, b.s, b.j, b.bt, src, pl.imageOff(b.s, 2*b.j), src, pl.imageOff(b.s, 2*b.j+1), bufs[1-b.s%2])
		free <- b.idx
	}
	return bufs[pl.numMerges()%2]
}

// extract copies a packed stage buffer's single remaining image into a
// mat.C (rows = beams).
func (pl *ffbpPlan) extract(buf *machine.BufC) *mat.C {
	nb := pl.p.NumBins
	img := mat.NewC(pl.p.NumPulses, nb)
	for bt := 0; bt < pl.p.NumPulses; bt++ {
		copy(img.Row(bt), buf.Data[bt*nb:(bt+1)*nb])
	}
	return img
}

// SeqFFBP runs the complete fast factorized back-projection sequentially
// on machine m, with the radar data and all subaperture images placed in
// mem — the model's main memory: external SDRAM for a single Epiphany core
// (the paper's sequential Epiphany implementation keeps the image data
// off-chip) or cached DRAM for the Intel reference. It returns the final
// image, bit-identical to ffbp.Image with nearest-neighbour interpolation.
func SeqFFBP(m machine.Machine, mem machine.Alloc, data *mat.C, p sar.Params, box geom.SceneBox) (*mat.C, geom.PolarGrid, error) {
	pl, err := newFFBPPlan(p, box, data)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	total := p.NumPulses * p.NumBins
	dataBuf, err := machine.NewBufC(mem, total)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	cur, err := machine.NewBufC(mem, total)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	next, err := machine.NewBufC(mem, total)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	for i := 0; i < p.NumPulses; i++ {
		copy(dataBuf.Data[i*p.NumBins:(i+1)*p.NumBins], data.Row(i))
	}

	// Stage 0: carrier removal.
	for i := 0; i < p.NumPulses; i++ {
		for c := 0; c < p.NumBins; c++ {
			m.Charge(machine.Ops{IOp: 2})
			v := dataBuf.Load(m, i*p.NumBins+c)
			cur.Store(m, i*p.NumBins+c, pl.stage0Pixel(m, v, c))
		}
	}
	return pl.extract(pl.seqMerges(m, [2]*machine.BufC{cur, next})), pl.grids[len(pl.grids)-1][0], nil
}

// ParFFBP runs the paper's parallel SPMD FFBP implementation on nCores
// cores of the simulated Epiphany chip (0 = all): the resulting image is
// partitioned into independent slices computed in parallel (paper Fig. 6).
// During the first merge iteration each core prefetches the two
// contributing pulses of each of its subaperture pairs into the two upper
// local-memory banks by DMA (paper: 16,016 bytes for two 1001-bin pulses);
// in later iterations the contributing data no longer fits locally and is
// read directly from external memory, while results are always written
// back to SDRAM with posted writes. Barriers separate merge iterations.
//
// Under a fault plan with halted cores the kernel degrades gracefully:
// work is assigned per logical slot (the fault-free partition is
// unchanged), and a halted core's slots move to its nearest live XY
// neighbor via Chip.Assignments — the run completes with quantified
// slowdown and a bit-identical image.
//
// The returned image is bit-identical to SeqFFBP on the same input.
func ParFFBP(ch *emu.Chip, nCores int, data *mat.C, p sar.Params, box geom.SceneBox) (*mat.C, geom.PolarGrid, error) {
	pl, err := newFFBPPlan(p, box, data)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	if nCores == 0 {
		nCores = len(ch.Cores)
	}
	assign, err := ch.Assignments(nCores)
	if err != nil {
		return nil, geom.PolarGrid{}, fmt.Errorf("kernels: ffbp cannot degrade: %w", err)
	}
	slotsByCore := make(map[int][]int, nCores)
	for slot, core := range assign {
		slotsByCore[core] = append(slotsByCore[core], slot)
	}
	if p.NumBins*8 > ch.P.BankBytes {
		return nil, geom.PolarGrid{}, fmt.Errorf("kernels: a %d-bin pulse does not fit one %d-byte local bank",
			p.NumBins, ch.P.BankBytes)
	}
	total := p.NumPulses * p.NumBins
	dataBuf, err := machine.NewBufC(ch.Ext(), total)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	cur, err := machine.NewBufC(ch.Ext(), total)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	next, err := machine.NewBufC(ch.Ext(), total)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	for i := 0; i < p.NumPulses; i++ {
		copy(dataBuf.Data[i*p.NumBins:(i+1)*p.NumBins], data.Row(i))
	}

	nb := p.NumBins
	var kernelErr error
	ch.Run(nCores, func(c *emu.Core) {
		// The logical work slots this core executes: its own, plus any it
		// took over from a halted neighbor. Every phase loops over the
		// slots between the same barriers, so the barrier structure — and,
		// with the identity assignment, the whole run — is unchanged.
		slots := slotsByCore[c.ID]

		// Per-core local buffers: the two upper data banks (banks 2 and 3),
		// and the host-side child-index scratch of mergeBeam.
		bankA, errA := machine.NewBufC(c.Bank(2), nb)
		bankB, errB := machine.NewBufC(c.Bank(3), nb)
		if errA != nil || errB != nil {
			kernelErr = fmt.Errorf("kernels: local bank allocation failed")
			return
		}
		idx := getIdx(4 * nb)
		defer idxPool.Put(idx)

		// Stage 0: each slot carrier-removes its slice of pulses, double-
		// buffering the DMA prefetch across the two banks.
		for _, slot := range slots {
			rows := mat.Partition(p.NumPulses, nCores)[slot]
			banks := [2]*machine.BufC{bankA, bankB}
			var dmas [2]emu.DMA
			for i := rows.Lo; i < rows.Hi; i++ {
				b := (i - rows.Lo) % 2
				if i == rows.Lo {
					dmas[b] = c.DMACopyC(banks[b], 0, dataBuf, i*nb, nb)
				}
				c.DMAWait(dmas[b])
				if i+1 < rows.Hi {
					nb2 := (i + 1 - rows.Lo) % 2
					dmas[nb2] = c.DMACopyC(banks[nb2], 0, dataBuf, (i+1)*nb, nb)
				}
				for col := 0; col < nb; col++ {
					c.Charge(machine.Ops{IOp: 2})
					v := banks[b].Load(c, col)
					cur.Store(c, i*nb+col, pl.stage0Pixel(c, v, col))
				}
			}
		}
		c.Barrier()
		if pl.numMerges() == 0 {
			return
		}

		// Merge iteration 1: children are single-pulse images that fit the
		// two upper banks, so prefetch both by DMA and compute locally.
		for _, slot := range slots {
			parents := mat.Partition(len(pl.stages[1]), nCores)[slot]
			for j := parents.Lo; j < parents.Hi; j++ {
				d0 := c.DMACopyC(bankA, 0, cur, pl.imageOff(0, 2*j), nb)
				d1 := c.DMACopyC(bankB, 0, cur, pl.imageOff(0, 2*j+1), nb)
				c.DMAWait(d0)
				c.DMAWait(d1)
				for bt := 0; bt < 2; bt++ {
					pl.childIndices(*idx, 0, j, bt)
					pl.mergeBeam(c, *idx, 0, j, bt, bankA, 0, bankB, 0, next)
				}
			}
		}
		c.Barrier()
		curL, nextL := next, cur

		// Later merge iterations: contributing data is read directly from
		// external memory (the paper's "in the later iterations it still
		// requires contributing data to be read from the external memory").
		for s := 1; s < pl.numMerges(); s++ {
			ntheta := pl.grids[s+1][0].NTheta
			for _, slot := range slots {
				units := mat.Partition(len(pl.stages[s+1])*ntheta, nCores)[slot]
				for u := units.Lo; u < units.Hi; u++ {
					j := u / ntheta
					bt := u % ntheta
					pl.childIndices(*idx, s, j, bt)
					pl.mergeBeam(c, *idx, s, j, bt, curL, pl.imageOff(s, 2*j), curL, pl.imageOff(s, 2*j+1), nextL)
				}
			}
			c.Barrier()
			curL, nextL = nextL, curL
		}
	})
	if kernelErr != nil {
		return nil, geom.PolarGrid{}, kernelErr
	}

	// Stage 0 wrote cur, merge 1 wrote next, and every later merge
	// alternates: after an odd number of merges the image is in next.
	final := cur
	if pl.numMerges()%2 == 1 {
		final = next
	}
	return pl.extract(final), pl.grids[len(pl.grids)-1][0], nil
}
