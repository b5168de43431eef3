package geom

import "math"

// Margins of NearestBins' fast tests: an edge cross product within
// beamMargin*(|x|+y) of zero (about 1e-9 rad), or a range index within
// rangeMargin of a rounding edge, fails the test. The float64 error of
// either path is about 1e-15 rad on the beam and 1e-15 bins per unit of
// (range + |R0|)/DR on the range, which maxRangeIndex bounds.
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
// and the bounds test give, with an Atan2 and a Hypot only at the first
// pixel of each run. Along the beam a child's angle, and so its beam
// index, moves monotonically with range; with the child's DR equal to the
// parent's and the parent's ranges at least the child half-length, so do
// the child's range index and the range index minus the parent bin. A
// child's bins therefore form runs in which the offset rises by one per
// range bin or stays -1. Each run's first pixel takes the exact
// arithmetic; a gallop and a bisection then find the run's last pixel
// that the fast tests (a cross product against each of the run's beam
// edges, the integer part of a square-root range plus one half) place
// clear of every edge in the run's bin, and by monotonicity every pixel
// between two such pixels lies in that bin too. A beam the argument does
// not cover (one leaving the upper half-plane, an edge outside [0, pi],
// unequal DR, ranges below the child half-length, an extreme or
// non-finite input) takes the exact arithmetic at every pixel.
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
	exact := !(st > 0 && h >= 0 && r0 >= h && min(r0, r1)*st > 0x1p-500 && rmax < 0x1p500)
	w := newNearestRuns(pg, ct, st, h, minus, stride0, rmax, exact)
	w.fill(bins)
	w = newNearestRuns(pg, ct, st, -h, plus, stride1, rmax, exact)
	w.fill(bins[1:])
}

// nearestRuns finds one child's bins along an output beam, run by run.
type nearestRuns struct {
	pg     PolarGrid
	ct, st float64 // the beam's direction
	dx     float64 // the child-relative x of the parent centre: +l/2 minus, -l/2 plus
	g      PolarGrid
	stride int
	inv    float64    // 1/g.DR
	exact  bool       // every pixel takes the exact arithmetic
	k      int        // the run's beam index, -1 below the grid, NTheta above
	i, c   int        // the run's first range index, and that minus its parent bin
	lo, hi [2]float64 // (cos, sin) of beam k's lower and upper edges
}

// newNearestRuns returns the run finder over g for a beam with child
// ranges at most rmax, exact if the caller says so, if an edge of g lies
// outside [0, pi], if g's DR differs from the parent's, or if its range
// indices could reach maxRangeIndex.
func newNearestRuns(pg PolarGrid, ct, st, dx float64, g PolarGrid, stride int, rmax float64, exact bool) nearestRuns {
	exact = exact || !(g.DTheta > 0 && g.Theta0-g.DTheta/2 >= 0 && g.Theta(g.NTheta)-g.DTheta/2 <= math.Pi &&
		g.DR == pg.DR && g.DR > 0 && g.DR < 0x1p500 && rmax+math.Abs(g.R0) < maxRangeIndex*g.DR)
	return nearestRuns{pg: pg, ct: ct, st: st, dx: dx, g: g, stride: stride, inv: 1 / g.DR, exact: exact}
}

// xy returns the child-relative position of parent bin bi, computed as
// ChildIndices computes it.
func (w *nearestRuns) xy(bi int) (x, y float64) {
	r := w.pg.Range(bi)
	return float64(r*w.ct) + w.dx, r * w.st
}

// edge returns the (cos, sin) of the rounding edge between beams j-1 and j.
func (w *nearestRuns) edge(j int) [2]float64 {
	s, c := math.Sincos(w.g.Theta(j) - w.g.DTheta/2)
	return [2]float64{c, s}
}

// fill writes the child's offsets to bins[0], bins[2], ..., one per
// parent range bin: run by run, the first pixel's exact rounded indices,
// then the run's beam edges and its last pixel, and o, o+1, ... or -1.
func (w *nearestRuns) fill(bins []int32) {
	n := w.g.NTheta
	for s := 0; s < w.pg.NR; {
		x, y := w.xy(s)
		w.k = min(max(int(math.Round(w.g.ThetaIndex(math.Atan2(y, x)))), -1), n)
		w.i = int(math.Round(w.g.RangeIndex(math.Hypot(x, y))))
		w.c = w.i - s
		e := s
		if !w.exact {
			if w.k >= 0 {
				w.lo = w.edge(w.k)
			}
			if w.k < n {
				w.hi = w.edge(w.k + 1)
			}
			e = w.end(s)
		}
		v, dv := int32(-1), int32(0)
		if uint(w.k) < uint(n) && uint(w.i) < uint(w.g.NR) {
			v, dv = int32(w.k*w.stride+w.i), 1
		}
		for p := s; p <= e; p++ {
			bins[2*p] = v
			v += dv
		}
		s = e + 1
	}
}

// end returns the run's last pixel: it gallops from s (probing s+1, s+2,
// s+4, ...) to the first pixel that fails the run's test, or past the
// beam, then bisects between the last passing probe and that pixel.
func (w *nearestRuns) end(s int) int {
	n := w.pg.NR
	a, b := s, s+1 // a is in the run; b fails, or is n
	for d := 2; b < n && w.in(b); d *= 2 {
		a, b = b, min(s+d, n)
	}
	for b-a > 1 {
		if m := a + (b-a)/2; w.in(m) {
			a = m
		} else {
			b = m
		}
	}
	return a
}

// in reports whether pixel p lies clear of every edge in the run's bin:
// its cross products put it above the run's lower beam edge and below its
// upper one, each by more than the beam margin, and, for a run inside the
// beam grid, its square-root range rounds, by more than the range margin,
// to p plus the run's offset, or lies below or above the grid as the
// run's first pixel did.
func (w *nearestRuns) in(p int) bool {
	x, y := w.xy(p)
	tol := beamMargin * (math.Abs(x) + y)
	n := w.g.NTheta
	if w.k >= 0 && w.lo[0]*y-w.lo[1]*x <= tol || w.k < n && w.hi[0]*y-w.hi[1]*x >= -tol {
		return false
	}
	if w.k < 0 || w.k >= n {
		return true
	}
	t := (math.Sqrt(x*x+y*y)-w.g.R0)*w.inv + 0.5
	switch {
	case w.i < 0:
		return t < -rangeMargin
	case w.i >= w.g.NR:
		return t >= float64(w.g.NR)+rangeMargin
	}
	u := int(t)
	f := t - float64(u)
	return t > 0 && u == p+w.c && u < w.g.NR && f > rangeMargin && f < 1-rangeMargin
}
