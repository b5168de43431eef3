package ffbp

import (
	"fmt"

	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
)

// Generalized factorization base. The paper's implementation uses merge
// base 2; Ulander et al.'s FFBP formulation allows any base k, combining k
// subapertures per merge and multiplying the angular resolution by k. The
// base trades work against quality: per output pixel the whole
// factorization performs k * log_k(N) interpolations (minimized near
// k = 3), while fewer merge levels mean fewer successive interpolations
// degrading the image — the knob behind the paper's observation that the
// simplified interpolation's noise accumulates "in the successive
// iterations".

// MergeK performs one base-k merge, combining subaperture groups
// (k*j .. k*j+k-1) into parents with k-fold angular resolution.
func MergeK(s *Stage, box geom.SceneBox, cfg Config, k int) (*Stage, error) {
	if k == 2 {
		return Merge(s, box, cfg)
	}
	if k < 2 || len(s.Images)%k != 0 {
		return nil, fmt.Errorf("ffbp: cannot merge %d subapertures with base %d", len(s.Images), k)
	}
	parents := geom.MergeStageK(s.Apertures, k)
	ntheta := s.Grids[0].NTheta * k
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
	// Child centre offsets relative to the parent centre (same for every
	// parent of the stage).
	offsets := geom.ChildOffsets(k, s.Apertures[0].Length)

	mat.Parallel(len(parents)*ntheta, cfg.Workers, func(lo, hi int) {
		for gb := lo; gb < hi; gb++ {
			j := gb / ntheta
			bt := gb % ntheta
			pg := out.Grids[j]
			theta := pg.Theta(bt)
			row := out.Images[j].Row(bt)
			for bi := 0; bi < nr; bi++ {
				r := pg.Range(bi)
				var acc complex64
				for i := 0; i < k; i++ {
					rc, thc := geom.ShiftCoords(r, theta, offsets[i])
					g := s.Grids[k*j+i]
					acc += interp.At2(s.Images[k*j+i], g.ThetaIndex(thc), g.RangeIndex(rc), cfg.Interp)
				}
				row[bi] = acc
			}
		}
	})
	return out, nil
}

// ImageK runs the complete base-k factorization. NumPulses must be a
// power of k. MergeK hands base 2 to Merge, so ImageK(_, _, _, cfg, 2) is
// Image's computation, fanned out over cfg.Workers the same way.
func ImageK(data *mat.C, p sar.Params, box geom.SceneBox, cfg Config, k int) (*mat.C, geom.PolarGrid, error) {
	if k < 2 {
		return nil, geom.PolarGrid{}, fmt.Errorf("ffbp: merge base %d < 2", k)
	}
	if !isPowerOf(p.NumPulses, k) {
		return nil, geom.PolarGrid{}, fmt.Errorf("ffbp: NumPulses %d is not a power of %d", p.NumPulses, k)
	}
	s, err := InitialStage(data, p, box)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	for len(s.Images) > 1 {
		if s, err = MergeK(s, box, cfg, k); err != nil {
			return nil, geom.PolarGrid{}, err
		}
	}
	return s.Images[0], s.Grids[0], nil
}

func isPowerOf(n, k int) bool {
	if n < 1 {
		return false
	}
	for n%k == 0 {
		n /= k
	}
	return n == 1
}
