package ffbp

import (
	"fmt"
	"math"
	"math/bits"

	"sarmany/internal/autofocus"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/quality"
	"sarmany/internal/sar"
)

// This file integrates the autofocus criterion calculation into the FFBP
// merge loop, the way the paper's Sec. II-A describes it being used: "the
// autofocus calculations use the image data itself and are done before
// each subaperture merge. ... Several different flight path compensations
// are thus tested before a merge", the best-scoring one is applied, and
// the merge proceeds with the compensated sampling positions.

// FocusConfig controls autofocused image formation.
type FocusConfig struct {
	// Config is the underlying merge configuration.
	Config
	// FromLevel is the first merge level (0-based; level l merges
	// subapertures of 2^l pulses each) at which compensations are
	// estimated. Early-level subaperture images carry too little angular
	// structure for the criterion; typical values are within a few levels
	// of the final merge.
	FromLevel int
	// MaxShift is the compensation search half-range in range pixels (at
	// most 1.5, the support of the cubic interpolation window).
	MaxShift float64
	// Candidates is the number of compensations tested per merge pair
	// ("several different flight path compensations are thus tested").
	Candidates int
}

// DefaultFocusConfig returns a configuration that estimates the
// compensation at the final merge, with 21 candidates over +/-1.2 px.
// Earlier levels' subaperture images are only weakly focused in azimuth,
// so their block correlations are less reliable; set FromLevel lower to
// autofocus every late merge as the paper describes.
func DefaultFocusConfig(np int) FocusConfig {
	return FocusConfig{
		Config:     Config{Interp: interp.Cubic},
		FromLevel:  max(bits.Len(uint(np))-2, 0),
		MaxShift:   1.2,
		Candidates: 21,
	}
}

// PairFrames describes the two subaperture images being compared: their
// polar grids and their aperture centres (track coordinates). The centres
// are needed because the same scene point appears at different pixels in
// the two children's own polar frames; the estimator corrects for that
// known geometry so only the unknown flight-path error remains.
type PairFrames struct {
	GridMinus, GridPlus     geom.PolarGrid
	CenterMinus, CenterPlus float64
}

// EstimatePairShift estimates the relative flight-path compensation of one
// subaperture pair from their images. A 6x6 block is taken around the
// brightest point of the minus image; the geometrically corresponding
// block of the plus image is located through the scene geometry (known
// from the subaperture centres), and the focus criterion is evaluated over
// a sweep of candidate range shifts around that baseline. The returned
// shift is the error-only compensation — zero for a perfectly linear
// flight path — suitable for MergeCompensated.
func EstimatePairShift(minus, plus *mat.C, f PairFrames, maxShift float64, candidates int) (autofocus.Shift, float64, error) {
	if minus.Rows < autofocus.BlockSize || minus.Cols < autofocus.BlockSize {
		return autofocus.Shift{}, 0, fmt.Errorf("ffbp: %dx%d image too small for a %d-pixel block",
			minus.Rows, minus.Cols, autofocus.BlockSize)
	}
	pr, pc, _ := quality.Peak(quality.Mag(minus))
	r0 := min(max(pr-autofocus.BlockSize/2, 0), minus.Rows-autofocus.BlockSize)
	c0 := min(max(pc-autofocus.BlockSize/2, 0), minus.Cols-autofocus.BlockSize)

	// Map the anchor pixel (the peak — the content the criterion will
	// lock onto) through the scene: minus-frame pixel -> scene point ->
	// plus-frame fractional pixel. The block-to-block transform is
	// locally a translation anchored there.
	thM := f.GridMinus.Theta(pr)
	rM := f.GridMinus.Range(pc)
	x := f.CenterMinus + rM*math.Cos(thM)
	y := rM * math.Sin(thM)
	rP := math.Hypot(x-f.CenterPlus, y)
	thP := math.Atan2(y, x-f.CenterPlus)
	rowP := f.GridPlus.ThetaIndex(thP) - float64(pr-r0)
	colP := f.GridPlus.RangeIndex(rP) - float64(pc-c0)

	// Integer plus-block origin plus the fractional geometric baseline.
	r0P := min(max(int(math.Round(rowP)), 0), plus.Rows-autofocus.BlockSize)
	c0P := min(max(int(math.Round(colP)), 0), plus.Cols-autofocus.BlockSize)
	baseBeam := rowP - float64(r0P)
	baseRange := colP - float64(c0P)

	bm, err := autofocus.BlockFrom(minus, r0, c0)
	if err != nil {
		return autofocus.Shift{}, 0, err
	}
	bp, err := autofocus.BlockFrom(plus, r0P, c0P)
	if err != nil {
		return autofocus.Shift{}, 0, err
	}
	// Sweep around the geometric baseline, clamped to the interpolation
	// window's support.
	cands := autofocus.RangeSweep(
		math.Max(baseRange-maxShift, -1.45),
		math.Min(baseRange+maxShift, 1.45),
		candidates)
	for i := range cands {
		cands[i].DBeam = min(max(baseBeam, -1.45), 1.45)
	}
	best, _, err := autofocus.Search(&bm, &bp, cands)
	if err != nil {
		return autofocus.Shift{}, 0, err
	}
	// A maximum at either end of the sweep means the criterion did not
	// peak inside the searched window — an unreliable estimate (typically
	// a weakly focused subaperture image whose content differs by more
	// than a translation). Apply no compensation rather than a wrong one.
	if len(cands) >= 2 &&
		(best.Shift.DRange == cands[0].DRange || best.Shift.DRange == cands[len(cands)-1].DRange) {
		return autofocus.Shift{}, best.Score, nil
	}
	// Strip the known geometry: what remains is the path-error estimate.
	return autofocus.Shift{DRange: best.Shift.DRange - baseRange}, best.Score, nil
}

// MergeCompensated performs one merge iteration like Merge, but displaces
// the plus-child sampling positions of pair j by comps[j] (in pixels) —
// applying a flight-path compensation during element combining. comps may
// be nil (plain Merge) or hold one entry per pair.
func MergeCompensated(s *Stage, box geom.SceneBox, cfg Config, comps []autofocus.Shift) (*Stage, error) {
	if comps != nil && len(comps) != len(s.Images)/2 {
		return nil, fmt.Errorf("ffbp: %d compensations for %d pairs", len(comps), len(s.Images)/2)
	}
	cfg.comps = comps
	return Merge(s, box, cfg)
}

// FocusedImage runs the complete factorization with autofocus: from merge
// level fc.FromLevel onward (once the subaperture images are at least a
// block tall), every pair's compensation is estimated with the focus
// criterion before the pair is merged, and applied during element
// combining. It returns the focused image, its grid, and the estimated
// compensations per autofocused level (for diagnostics).
func FocusedImage(data *mat.C, p sar.Params, box geom.SceneBox, fc FocusConfig) (*mat.C, geom.PolarGrid, [][]autofocus.Shift, error) {
	if fc.Candidates < 1 {
		return nil, geom.PolarGrid{}, nil, fmt.Errorf("ffbp: need at least one candidate compensation")
	}
	if fc.MaxShift <= 0 || fc.MaxShift > 1.5 {
		return nil, geom.PolarGrid{}, nil, fmt.Errorf("ffbp: MaxShift %v outside (0, 1.5]", fc.MaxShift)
	}
	if err := checkPulses(p); err != nil {
		return nil, geom.PolarGrid{}, nil, err
	}
	s, err := InitialStage(data, p, box)
	if err != nil {
		return nil, geom.PolarGrid{}, nil, err
	}
	var history [][]autofocus.Shift
	level := 0
	for len(s.Images) > 1 {
		var comps []autofocus.Shift
		if level >= fc.FromLevel && s.Grids[0].NTheta >= autofocus.BlockSize {
			comps = make([]autofocus.Shift, len(s.Images)/2)
			for j := range comps {
				frames := PairFrames{
					GridMinus:   s.Grids[2*j],
					GridPlus:    s.Grids[2*j+1],
					CenterMinus: s.Apertures[2*j].Center,
					CenterPlus:  s.Apertures[2*j+1].Center,
				}
				sh, _, err := EstimatePairShift(s.Images[2*j], s.Images[2*j+1], frames, fc.MaxShift, fc.Candidates)
				if err != nil {
					return nil, geom.PolarGrid{}, nil, err
				}
				comps[j] = sh
			}
			history = append(history, comps)
		}
		if s, err = MergeCompensated(s, box, fc.Config, comps); err != nil {
			return nil, geom.PolarGrid{}, nil, err
		}
		level++
	}
	return s.Images[0], s.Grids[0], history, nil
}
