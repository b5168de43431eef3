package geom

import "math"

// Margins of NearestBins' fast tests: an edge cross product within
// beamMargin*(|x|+y) of zero (about 1e-9 rad), or a range index within
// rangeMargin of a rounding edge, is decided by the exact arithmetic
// instead. The float64 error of either path is about 1e-15 rad on the
// beam and 1e-15 bins per unit of (range + |R0|)/DR on the range, which
// maxRangeIndex bounds.
const (
	beamMargin    = 1e-9
	rangeMargin   = 1e-6
	maxRangeIndex = 1e6
)

// NearestBins writes the rounded child samples of beam bt of the parent
// grid pg, whose children have length l and are sampled on the grids minus
// and plus, for the paper's nearest-neighbour merge. For every range bin
// bi, bins[2*bi] is the minus child's sample offset t*stride0 + r and
// bins[2*bi+1] the plus child's t*stride1 + r, or -1 when either rounded
// index lies outside that child's grid. bins must hold 2*pg.NR values;
// the strides are the children's row strides in elements.
//
// Every bin equals what ChildIndices (with no displacement), math.Round
// and the bounds test give, without a per-pixel Atan2 or Hypot. Along the
// beam a child's angle moves monotonically with range, so its beam index
// walks across the rounding edges at Theta0 + (k-0.5)*DTheta, each
// computed when reached and tested with one cross product; the range
// index is the integer part of a square-root range plus one half. The
// first pixel and a test within its margin of an edge take the exact
// Atan2 or Hypot, and a beam the tests cannot decide (one leaving the
// upper half-plane, an edge outside [0, pi], an extreme or non-finite
// input) takes the exact path throughout.
func NearestBins(bins []int32, pg PolarGrid, bt int, l float64, minus, plus PolarGrid, stride0, stride1 int) {
	if int64(minus.NTheta)*int64(stride0) > math.MaxInt32 || int64(plus.NTheta)*int64(stride1) > math.MaxInt32 {
		panic("geom: NearestBins offsets overflow int32")
	}
	theta := pg.Theta(bt)
	ct, st := math.Cos(theta), math.Sin(theta)
	h := l / 2
	bins = bins[:2*pg.NR]
	r0, r1 := pg.R0, pg.Range(pg.NR-1)
	rmax := max(r0, r1) + h
	exact := !(st > 0 && h >= 0 && min(r0, r1)*st > 0x1p-500 && rmax < 0x1p500)
	w0 := newNearestWalk(minus, stride0, rmax, exact)
	w1 := newNearestWalk(plus, stride1, rmax, exact)
	for bi := 0; 2*bi < len(bins); bi++ {
		r := pg.Range(bi)
		x, y := r*ct, r*st
		xp, xm := x+h, x-h
		if bi == 0 {
			w0.seek(xp, y)
			w1.seek(xm, y)
		}
		bins[2*bi], bins[2*bi+1] = w0.bin(xp, y), w1.bin(xm, y)
	}
}

// nearestWalk follows one child's rounded beam index along an output beam.
type nearestWalk struct {
	g      PolarGrid
	stride int
	inv    float64    // 1/g.DR
	exact  bool       // every pixel takes the exact arithmetic
	k      int        // the last pixel's beam index, -1 below the grid, NTheta above
	lo, hi [2]float64 // (cos, sin) of bin k's lower and upper edges
}

// newNearestWalk returns the walk over g for a beam with child ranges at
// most rmax, exact if the caller says so, if an edge of g lies outside
// [0, pi], or if its range indices could reach maxRangeIndex.
func newNearestWalk(g PolarGrid, stride int, rmax float64, exact bool) nearestWalk {
	exact = exact || !(g.DTheta > 0 && g.Theta0-g.DTheta/2 >= 0 && g.Theta(g.NTheta)-g.DTheta/2 <= math.Pi &&
		g.DR > 0 && g.DR < 0x1p500 && rmax+math.Abs(g.R0) < maxRangeIndex*g.DR)
	return nearestWalk{g: g, stride: stride, inv: 1 / g.DR, exact: exact}
}

// edge returns the (cos, sin) of the rounding edge between beams j-1 and j.
func (w *nearestWalk) edge(j int) [2]float64 {
	s, c := math.Sincos(w.g.Theta(j) - w.g.DTheta/2)
	return [2]float64{c, s}
}

// seek sets k to the exact beam index of (x, y) and loads its edges.
func (w *nearestWalk) seek(x, y float64) {
	n := w.g.NTheta
	w.k = min(max(int(math.Round(w.g.ThetaIndex(math.Atan2(y, x)))), -1), n)
	if w.k >= 0 {
		w.lo = w.edge(w.k)
	}
	if w.k < n {
		w.hi = w.edge(w.k + 1)
	}
}

// bin returns the sample offset of the pixel at (x, y), or -1. The beam
// index moves up across every edge (x, y) is clearly above and down across
// every edge it is clearly below; a tie takes the exact index.
func (w *nearestWalk) bin(x, y float64) int32 {
	tol := beamMargin * (math.Abs(x) + y)
	n := w.g.NTheta
	if w.exact {
		w.seek(x, y)
	} else if c := w.hi[0]*y - w.hi[1]*x; w.k < n && c >= -tol {
		for {
			if c <= tol {
				w.seek(x, y)
				break
			}
			w.k++
			w.lo = w.hi
			if w.k == n {
				break
			}
			w.hi = w.edge(w.k + 1)
			if c = w.hi[0]*y - w.hi[1]*x; c < -tol {
				break
			}
		}
	} else if c := w.lo[0]*y - w.lo[1]*x; w.k >= 0 && c <= tol {
		for {
			if c >= -tol {
				w.seek(x, y)
				break
			}
			w.k--
			w.hi = w.lo
			if w.k < 0 {
				break
			}
			w.lo = w.edge(w.k)
			if c = w.lo[0]*y - w.lo[1]*x; c > tol {
				break
			}
		}
	}
	if w.k < 0 || w.k >= n {
		return -1
	}
	if t := (math.Sqrt(x*x+y*y)-w.g.R0)*w.inv + 0.5; !w.exact && t > 0 {
		if t >= float64(w.g.NR)+rangeMargin {
			return -1
		}
		if f := t - float64(int(t)); f > rangeMargin && f < 1-rangeMargin {
			return int32(w.k*w.stride + int(t))
		}
	}
	i := int(math.Round(w.g.RangeIndex(math.Hypot(x, y))))
	if uint(i) >= uint(w.g.NR) {
		return -1
	}
	return int32(w.k*w.stride + i)
}
