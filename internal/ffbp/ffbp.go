// Package ffbp implements fast factorized back-projection (FFBP), the
// paper's memory-intensive case study. The whole aperture initially
// consists of single-pulse subapertures with one wide beam each (the
// pulse times CarrierRow); merge iterations pairwise combine
// subapertures, doubling the angular resolution each time (paper
// Fig. 3a), until one full-aperture image remains. With
// the paper's configuration — 1024 pulses x 1001 range bins, merge base 2 —
// that is ten iterations ending in a 1024x1001-pixel image.
//
// Each merge maps every parent pixel (r, theta) onto its two child images
// through the cosine-theorem geometry of paper eqs. 1-4 and combines the
// interpolated child samples (paper eq. 5). The interpolation kernel is
// configurable; the paper's implementation uses simplified
// nearest-neighbour interpolation, which is faster but degrades the image
// relative to GBP (paper Fig. 7), and needs only the rounded child indices,
// whose runs along each output beam geom.NearestRuns finds and the merge
// copies and adds whole; the other kernels use geom.ChildIndices.
package ffbp

import (
	"fmt"
	"math"

	"sarmany/internal/autofocus"
	"sarmany/internal/cf"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
)

// Config controls image formation.
type Config struct {
	// Interp selects the child-image interpolation kernel. The paper's
	// FFBP uses Nearest; Cubic markedly improves quality at higher cost.
	Interp interp.Kind
	// Workers is the number of goroutines used per merge stage; 0 means
	// GOMAXPROCS. Workers == 1 gives the sequential reference.
	Workers int

	// comps holds per-pair flight-path compensations applied to the plus
	// child's sampling positions; set through MergeCompensated.
	comps []autofocus.Shift
}

// Stage holds the state of the factorization after some number of merges:
// one polar image (and its grid) per remaining subaperture.
type Stage struct {
	Apertures []geom.Aperture
	Grids     []geom.PolarGrid
	Images    []*mat.C
}

// NumSubapertures returns the number of subapertures in the stage.
func (s *Stage) NumSubapertures() int { return len(s.Images) }

// InitialStage builds stage 0 of the factorization from pulse-compressed
// data: one single-beam image per pulse, with the two-way carrier phase
// removed (multiplication by CarrierRow) so that subsequent merges combine
// coherently. The pulses are spread over GOMAXPROCS workers.
func InitialStage(data *mat.C, p sar.Params, box geom.SceneBox) (*Stage, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if data.Rows != p.NumPulses || data.Cols != p.NumBins {
		return nil, fmt.Errorf("ffbp: data is %dx%d, params say %dx%d",
			data.Rows, data.Cols, p.NumPulses, p.NumBins)
	}
	aps := geom.Stage0(p.NumPulses, -p.ApertureLength()/2, p.PulseSpacing)
	s := &Stage{
		Apertures: aps,
		Grids:     make([]geom.PolarGrid, len(aps)),
		Images:    make([]*mat.C, len(aps)),
	}
	for i, a := range aps {
		s.Grids[i] = box.GridFor(a, 1, p.NumBins, p.R0, p.DR)
	}
	carrier := CarrierRow(p)
	mat.Parallel(len(aps), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			img := mat.NewC(1, p.NumBins)
			src, dst := data.Row(i), img.Row(0)
			for c := range dst {
				dst[c] = src[c] * carrier[c]
			}
			s.Images[i] = img
		}
	})
	return s, nil
}

// CarrierRow returns the stage-0 carrier rotation of every range bin c:
// exp(+i*k*r) with k = 4*pi/lambda and r = R0 + c*DR, the factor by which
// InitialStage multiplies each pulse. The simulator kernels multiply by
// the same row.
//
// Precision contract: the phase argument k*r is evaluated in float64 and
// rounded to float32 once, at the cf.Expi call. At paper-scale ranges
// (k*r up to ~4e3 rad) that single rounding costs at most half a float32
// ULP of the argument, ~2.5e-4 rad — two orders of magnitude below the
// merge interpolation error — and the downstream float32 pixels carry no
// further phase arithmetic. TestInitialStagePhaseContract pins this
// against the closed form.
func CarrierRow(p sar.Params) []complex64 {
	k := 4 * math.Pi / p.Wavelength
	row := make([]complex64, p.NumBins)
	for c := range row {
		r := p.R0 + float64(c)*p.DR
		row[c] = cf.Expi(float32(k * r))
	}
	return row
}

// Merge performs one merge-base-2 iteration, combining subaperture pairs
// (2j, 2j+1) into parents with doubled angular resolution. It runs the
// fused beam kernel (mergeBeam); MergeRef runs the retained reference.
func Merge(s *Stage, box geom.SceneBox, cfg Config) (*Stage, error) {
	return merge(s, box, cfg, mergeBeam)
}

// merge is the shared merge-iteration driver: grid/image setup and the
// flattened (parent, beam) fan-out, parameterized by the beam kernel.
// Each band of work owns one beamScratch, which the beam kernel may use
// for every beam it computes.
func merge(s *Stage, box geom.SceneBox, cfg Config, beam func(s, out *Stage, j, bt int, kind interp.Kind, comp autofocus.Shift, sc *beamScratch)) (*Stage, error) {
	if len(s.Images)%2 != 0 {
		return nil, fmt.Errorf("ffbp: cannot merge %d subapertures", len(s.Images))
	}
	for i, img := range s.Images {
		if g := s.Grids[i]; img.Rows != g.NTheta || img.Cols != g.NR {
			return nil, fmt.Errorf("ffbp: image %d is %dx%d, its grid %dx%d", i, img.Rows, img.Cols, g.NTheta, g.NR)
		}
	}
	parents := geom.MergeStage(s.Apertures)
	ntheta := s.Grids[0].NTheta * 2
	nr := s.Grids[0].NR
	out := &Stage{
		Apertures: parents,
		Grids:     make([]geom.PolarGrid, len(parents)),
		Images:    make([]*mat.C, len(parents)),
	}
	for j, a := range parents {
		out.Grids[j] = box.GridFor(a, ntheta, nr, s.Grids[0].R0, s.Grids[0].DR)
		out.Images[j] = mat.NewC(ntheta, nr)
	}

	// Work unit: one (parent, beam) pair; partition the flattened list so
	// every stage parallelizes evenly regardless of how many parents
	// remain.
	mat.Parallel(len(parents)*ntheta, cfg.Workers, func(lo, hi int) {
		var sc beamScratch
		for gb := lo; gb < hi; gb++ {
			j := gb / ntheta
			bt := gb % ntheta
			var comp autofocus.Shift
			if cfg.comps != nil {
				comp = cfg.comps[j]
			}
			beam(s, out, j, bt, cfg.Interp, comp, &sc)
		}
	})
	return out, nil
}

// beamScratch is one band's child-index scratch for geom.NearestRuns and
// geom.ChildIndices, which every beam of the band reuses.
type beamScratch struct {
	minus, plus [][3]int32
	idx         []float64
}

// mergeBeam computes beam bt of parent j: the element combining of paper
// eq. 5 along one output beam. comp displaces the plus child's sampling
// positions (in pixels) — the flight-path compensation of the autofocused
// merge; the zero Shift reproduces the plain merge.
//
// This is the fused hot path, bit-identical to mergeBeamRef (pinned by
// TestFusedMergeBitIdentical). An uncompensated Nearest merge copies each
// minus run of geom.NearestRuns into the row, or clears it, then adds
// each plus run's samples, or +0 outside the plus grid: every pixel is
// the v1 + v2 of the two interp.At2 calls, signed zeros included. The
// simulator kernels load the same samples pixel by pixel from
// geom.NearestBins and so stay bit-identical to ffbp.Image. Every other
// merge samples with interp.At2 at the fractional indices of
// geom.ChildIndices, whose per-beam cos/sin are hoisted.
func mergeBeam(s, out *Stage, j, bt int, kind interp.Kind, comp autofocus.Shift, sc *beamScratch) {
	img0, img1 := s.Images[2*j], s.Images[2*j+1]
	row := out.Images[j].Row(bt)
	if kind == interp.Nearest && comp == (autofocus.Shift{}) {
		sc.minus, sc.plus = geom.NearestRuns(sc.minus[:0], sc.plus[:0], out.Grids[j], bt,
			s.Apertures[2*j].Length, s.Grids[2*j], s.Grids[2*j+1], img0.Stride, img1.Stride)
		for _, r := range sc.minus {
			if dst := row[r[0] : r[1]+1]; r[2] < 0 {
				clear(dst)
			} else {
				copy(dst, img0.Data[r[2]:])
			}
		}
		for _, r := range sc.plus {
			if dst := row[r[0] : r[1]+1]; r[2] < 0 {
				for i := range dst {
					dst[i] += 0 // v1 + 0 turns a -0 component into +0
				}
			} else {
				for i, v := range img1.Data[r[2]:][:len(dst)] {
					dst[i] += v
				}
			}
		}
		return
	}
	if sc.idx == nil {
		sc.idx = make([]float64, 4*len(row))
	}
	geom.ChildIndices(sc.idx, out.Grids[j], bt, s.Apertures[2*j].Length,
		s.Grids[2*j], s.Grids[2*j+1], comp.DBeam, comp.DRange)
	for bi := range row {
		c := (*[4]float64)(sc.idx[4*bi:])
		row[bi] = interp.At2(img0, c[0], c[1], kind) + interp.At2(img1, c[2], c[3], kind)
	}
}

// mergeBeamRef is the retained unfused reference for mergeBeam: per-pixel
// geom.ChildCoords and interp.At2 calls, the literal transcription of
// paper eq. 5. The fused path is pinned bit-identical to it.
func mergeBeamRef(s, out *Stage, j, bt int, kind interp.Kind, comp autofocus.Shift, _ *beamScratch) {
	pg := out.Grids[j]
	img0, img1 := s.Images[2*j], s.Images[2*j+1]
	g0, g1 := s.Grids[2*j], s.Grids[2*j+1]
	l := s.Apertures[2*j].Length // child subaperture length
	theta := pg.Theta(bt)
	row := out.Images[j].Row(bt)
	for bi := 0; bi < pg.NR; bi++ {
		r := pg.Range(bi)
		r1, th1, r2, th2 := geom.ChildCoords(r, theta, l)
		v1 := interp.At2(img0, g0.ThetaIndex(th1), g0.RangeIndex(r1), kind)
		v2 := interp.At2(img1, g1.ThetaIndex(th2)+comp.DBeam, g1.RangeIndex(r2)+comp.DRange, kind)
		row[bi] = v1 + v2
	}
}

// MergeRef is Merge running the retained unfused reference beam kernel
// (mergeBeamRef); the equivalence suite pins Merge bit-identical to it.
func MergeRef(s *Stage, box geom.SceneBox, cfg Config) (*Stage, error) {
	return merge(s, box, cfg, mergeBeamRef)
}

// Image runs the complete factorization: InitialStage followed by
// log2(NumPulses) merges. It returns the final full-aperture image (rows =
// beams, cols = range bins) and its polar grid, which is expressed relative
// to the aperture centre (track position 0) — directly comparable to
// gbp.Image on the same grid.
func Image(data *mat.C, p sar.Params, box geom.SceneBox, cfg Config) (*mat.C, geom.PolarGrid, error) {
	if p.NumPulses&(p.NumPulses-1) != 0 {
		return nil, geom.PolarGrid{}, fmt.Errorf("ffbp: NumPulses %d is not a power of two (merge base 2)", p.NumPulses)
	}
	s, err := InitialStage(data, p, box)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	for len(s.Images) > 1 {
		s, err = Merge(s, box, cfg)
		if err != nil {
			return nil, geom.PolarGrid{}, err
		}
	}
	return s.Images[0], s.Grids[0], nil
}
