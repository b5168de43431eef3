package kernels

import (
	"fmt"

	"sarmany/internal/emu"
	"sarmany/internal/ffbp"
	"sarmany/internal/geom"
	"sarmany/internal/machine"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
)

// ffbpPlan holds what the FFBP kernels share: every stage's apertures and
// grids, from ffbp.Stages, and the stage-0 carrier row and charges.
type ffbpPlan struct {
	p       sar.Params
	stages  []*ffbp.Stage
	carrier []complex64 // ffbp.CarrierRow(p)
	// stage0 charges a stage-0 pulse as a beam whose minus child is the
	// pulse and whose plus child loads nothing. A pixel charges its
	// sample's address (IOp 2), loads the sample, charges the range
	// r = R0 + c*DR, the complex multiply (FMA 1+4) and one sincos, then
	// a zero batch, which adds nothing, and stores its result.
	stage0 machine.Beam
}

func newFFBPPlan(p sar.Params, box geom.SceneBox, data *mat.C) (*ffbpPlan, error) {
	st, err := ffbp.Stages(data, p, box)
	if err != nil {
		return nil, err
	}
	last := int32(p.NumBins - 1)
	return &ffbpPlan{p: p, stages: st, carrier: ffbp.CarrierRow(p), stage0: machine.Beam{
		Pixel: [3]machine.Ops{{IOp: 2}, {FMA: 1 + 4, Trig: 1}, {}},
		Runs:  [2][][3]int32{{{0, last, 0}}, {{0, last, -1}}},
	}}, nil
}

// numMerges returns the number of merge iterations (10 for 1024 pulses).
func (pl *ffbpPlan) numMerges() int { return len(pl.stages) - 1 }

// imageOff returns the element offset of subaperture i's image within a
// stage buffer at stage s (every stage packs NumPulses*NumBins elements).
func (pl *ffbpPlan) imageOff(s, i int) int { return i * pl.stages[s].Grids[0].NTheta * pl.p.NumBins }

// stage0Row computes (and charges) the carrier removal of one pulse,
// a_0(r_c) = d(r_c) * exp(+i*k*r_c) as ffbp.InitialStage forms it, from
// element so+c of src to element do+c of dst for every bin c. The host
// multiplies the row, and the machine is charged for it in one beam.
func (pl *ffbpPlan) stage0Row(m machine.Machine, src *machine.BufC, so int, dst *machine.BufC, do int) {
	for c, w := range pl.carrier {
		dst.Data[do+c] = src.Data[so+c] * w
	}
	b := pl.stage0
	b.Src, b.Base, b.Dst, b.Out = [2]*machine.BufC{src, src}, [2]int{so, so}, dst, do
	m.ChargeBeam(b)
}

// runs sets r to the child sample runs of beam bt of parent j at merge s,
// reusing r's storage: host arithmetic that charges nothing.
func (pl *ffbpPlan) runs(r *[2][][3]int32, s, j, bt int) {
	kids := pl.stages[s]
	g0, g1 := kids.Grids[2*j], kids.Grids[2*j+1]
	r[0], r[1] = geom.NearestRuns(r[0][:0], r[1][:0], pl.stages[s+1].Grids[j], bt, kids.Apertures[2*j].Length, g0, g1, g0.NR, g1.NR)
}

// mergeBeam computes (and charges) beam bt of parent j at merge s
// (children at stage s): the element combining of paper eq. 5 along one
// output beam, gathered by ffbp.GatherRuns from the runs in r and stored
// to dst. The minus and plus children are read from src0 and src1 from
// elements base0 and base1, on local banks or in external memory; a run
// of -1 adds zero (the paper's "skip the additions with zero when the
// indices are out of range").
//
// The charges follow the paper's kernel: the hoisted per-beam setup once,
// then per pixel the range step and the cosine-theorem index generation,
// the two nearest-neighbour samples, the combining add and the store — in
// that order, which the modeled cycles depend on and one ChargeBeam call
// keeps.
func (pl *ffbpPlan) mergeBeam(m machine.Machine, r *[2][][3]int32, s, j, bt int,
	src0 *machine.BufC, base0 int, src1 *machine.BufC, base1 int, dst *machine.BufC) {
	m.Charge(beamSetup)
	nr := pl.p.NumBins
	out := pl.imageOff(s+1, j) + bt*nr
	ffbp.GatherRuns(dst.Data[out:out+nr], src0.Data[base0:], src1.Data[base1:], r[0], r[1])
	m.ChargeBeam(machine.Beam{Pixel: mergePixel, Src: [2]*machine.BufC{src0, src1}, Base: [2]int{base0, base1},
		Runs: *r, Dst: dst, Out: out})
}

// lookahead is how many beams ahead of SeqFFBP's charging loop its
// helper goroutine finds the child sample runs.
const lookahead = 4

// seqMerges runs SeqFFBP's merge iterations on m: merge s reads
// bufs[s%2] and writes the other buffer, and the final image's buffer is
// returned. One helper goroutine finds the beams' runs, up to lookahead
// beams ahead, on lookahead+1 run scratches of its own; the caller's
// goroutine charges the beams in order. The helper exits on every return
// path, a panic inside m included.
func (pl *ffbpPlan) seqMerges(m machine.Machine, bufs [2]*machine.BufC) *machine.BufC {
	type beamRuns struct {
		s, j, bt int
		r        *[2][][3]int32
	}
	// Both channels hold every scratch at once, so only the helper's
	// receive from free and the caller's from ready can block.
	free := make(chan *[2][][3]int32, lookahead+1)
	for range cap(free) {
		free <- new([2][][3]int32)
	}
	ready, done := make(chan beamRuns, cap(free)), make(chan struct{})
	defer func() {
		close(done)
		for range ready { // until the helper has returned and closed it
		}
	}()
	go func() {
		defer close(ready)
		for s := range pl.numMerges() {
			for j, g := range pl.stages[s+1].Grids {
				for bt := range g.NTheta {
					var r *[2][][3]int32
					select {
					case r = <-free:
					case <-done:
						return
					}
					pl.runs(r, s, j, bt)
					ready <- beamRuns{s, j, bt, r}
				}
			}
		}
	}()
	for b := range ready {
		src := bufs[b.s%2]
		pl.mergeBeam(m, b.r, b.s, b.j, b.bt, src, pl.imageOff(b.s, 2*b.j), src, pl.imageOff(b.s, 2*b.j+1), bufs[1-b.s%2])
		free <- b.r
	}
	return bufs[pl.numMerges()%2]
}

// buffers allocates from mem, in this order, the buffer of the radar data,
// which it fills from data, and the two stage buffers the merges
// alternate between, each NumPulses*NumBins elements.
func (pl *ffbpPlan) buffers(mem machine.Alloc, data *mat.C) (in, cur, next *machine.BufC, err error) {
	var bufs [3]*machine.BufC
	for i := range bufs {
		if bufs[i], err = machine.NewBufC(mem, pl.p.NumPulses*pl.p.NumBins); err != nil {
			return nil, nil, nil, err
		}
	}
	for i := range pl.p.NumPulses {
		copy(bufs[0].Data[i*pl.p.NumBins:], data.Row(i))
	}
	return bufs[0], bufs[1], bufs[2], nil
}

// image returns the final image, which a stage buffer packs beam by beam,
// as a mat.C over the buffer's data (rows = beams).
func (pl *ffbpPlan) image(buf *machine.BufC) *mat.C {
	return &mat.C{Rows: pl.p.NumPulses, Cols: pl.p.NumBins, Stride: pl.p.NumBins, Data: buf.Data}
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
	dataBuf, cur, next, err := pl.buffers(mem, data)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}

	// Stage 0: carrier removal.
	for i := range p.NumPulses {
		pl.stage0Row(m, dataBuf, i*p.NumBins, cur, i*p.NumBins)
	}
	return pl.image(pl.seqMerges(m, [2]*machine.BufC{cur, next})), pl.stages[pl.numMerges()].Grids[0], nil
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
	dataBuf, cur, next, err := pl.buffers(ch.Ext(), data)
	if err != nil {
		return nil, geom.PolarGrid{}, err
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
		// and the host-side run scratch of mergeBeam.
		bankA, errA := machine.NewBufC(c.Bank(2), nb)
		bankB, errB := machine.NewBufC(c.Bank(3), nb)
		if errA != nil || errB != nil {
			kernelErr = fmt.Errorf("kernels: local bank allocation failed")
			return
		}
		var r [2][][3]int32

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
					dmas[1-b] = c.DMACopyC(banks[1-b], 0, dataBuf, (i+1)*nb, nb)
				}
				pl.stage0Row(c, banks[b], 0, cur, i*nb)
			}
		}
		c.Barrier()
		if pl.numMerges() == 0 {
			return
		}

		// Merge iteration 1: children are single-pulse images that fit the
		// two upper banks, so prefetch both by DMA and compute locally.
		for _, slot := range slots {
			parents := mat.Partition(len(pl.stages[1].Apertures), nCores)[slot]
			for j := parents.Lo; j < parents.Hi; j++ {
				d0 := c.DMACopyC(bankA, 0, cur, pl.imageOff(0, 2*j), nb)
				d1 := c.DMACopyC(bankB, 0, cur, pl.imageOff(0, 2*j+1), nb)
				c.DMAWait(d0)
				c.DMAWait(d1)
				for bt := 0; bt < 2; bt++ {
					pl.runs(&r, 0, j, bt)
					pl.mergeBeam(c, &r, 0, j, bt, bankA, 0, bankB, 0, next)
				}
			}
		}
		c.Barrier()
		curL, nextL := next, cur

		// Later merge iterations: contributing data is read directly from
		// external memory (the paper's "in the later iterations it still
		// requires contributing data to be read from the external memory").
		for s := 1; s < pl.numMerges(); s++ {
			ntheta := pl.stages[s+1].Grids[0].NTheta
			for _, slot := range slots {
				units := mat.Partition(len(pl.stages[s+1].Apertures)*ntheta, nCores)[slot]
				for u := units.Lo; u < units.Hi; u++ {
					j := u / ntheta
					bt := u % ntheta
					pl.runs(&r, s, j, bt)
					pl.mergeBeam(c, &r, s, j, bt, curL, pl.imageOff(s, 2*j), curL, pl.imageOff(s, 2*j+1), nextL)
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
	return pl.image(final), pl.stages[pl.numMerges()].Grids[0], nil
}
