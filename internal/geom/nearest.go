package geom

import "math"

// Margins of the run finder's fast tests: an edge cross product within
// beamMargin*(|x|+y) of zero (about 1e-9 rad), or a range index within
// rangeMargin of a rounding edge, fails the test. The float64 error of
// either path is about 1e-15 rad on the beam and 1e-15 bins per unit of
// (range + |R0|)/DR on the range, which maxRangeIndex bounds.
const (
	beamMargin    = 1e-9
	rangeMargin   = 1e-6
	maxRangeIndex = 1e6
)

// NearestRuns appends the runs of beam bt's rounded child samples to
// minusRuns and plusRuns, for the paper's nearest-neighbour merge of the
// parent grid pg, whose children have length l, are sampled on the grids
// minus and plus, and have row strides stride0 and stride1 in elements.
// A run {first, last, o} covers parent range bins first..last, whose
// samples are the child's elements o, o+1, ..., or lie outside its grid
// when o is -1. Each child's runs cover the beam's bins 0..pg.NR-1 in
// order; the host and kernel merges gather them, and machine.Beam prices them.
//
// Every sample equals what ChildIndices (with no displacement),
// math.Round and the bounds test give. Along the beam a child's beam
// index moves monotonically with range; with the child's DR equal to the
// parent's and the parent's ranges at least the child half-length, so do
// its range index and that minus the parent bin. A run therefore ends
// before the first bin that the fast tests (a cross product against each
// of the run's beam edges, the integer part of a square-root range plus
// one half) do not place clear of every edge in the run's bin, and the
// next run starts there from the same tests; a beam's first run, and a
// run whose first bin lies within a margin, start from the exact Atan2
// and Hypot. A beam the argument does not cover (one leaving the upper
// half-plane, an edge outside [0, pi], unequal DR, ranges below the child
// half-length, an extreme or non-finite input) takes the exact arithmetic
// at every bin, one run per bin.
func NearestRuns(minusRuns, plusRuns [][3]int32, pg PolarGrid, bt int, l float64, minus, plus PolarGrid, stride0, stride1 int) ([][3]int32, [][3]int32) {
	if int64(pg.NR) > math.MaxInt32 || int64(minus.NTheta)*int64(stride0) > math.MaxInt32 || int64(plus.NTheta)*int64(stride1) > math.MaxInt32 {
		panic("geom: nearest-neighbour bins or offsets overflow int32")
	}
	theta := pg.Theta(bt)
	ct, st := math.Cos(theta), math.Sin(theta)
	h := l / 2
	r0, r1 := pg.R0, pg.Range(pg.NR-1)
	rmax := max(r0, r1) + h
	exact := !(st > 0 && h >= 0 && r0 >= h && min(r0, r1)*st > 0x1p-500 && rmax < 0x1p500)
	runs := [2][][3]int32{minusRuns, plusRuns}
	for c, w := range [2]nearestRuns{
		newNearestRuns(pg, ct, st, h, minus, stride0, rmax, exact),
		newNearestRuns(pg, ct, st, -h, plus, stride1, rmax, exact),
	} {
		for s := 0; s < pg.NR; {
			if w.exact || s == 0 || !w.next(s) {
				w.start(s)
			}
			e := w.end(s)
			o := int32(-1)
			if uint(w.k) < uint(w.g.NTheta) && uint(w.i) < uint(w.g.NR) {
				o = int32(w.k*w.stride + w.i)
			}
			runs[c] = append(runs[c], [3]int32{int32(s), int32(e), o})
			s = e + 1
		}
	}
	return runs[0], runs[1]
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
	n      int        // the previous run's length in pixels, 0 before the first
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

// cross returns e x (x, y): positive when (x, y) lies above the edge e.
func cross(e [2]float64, x, y float64) float64 { return e[0]*y - e[1]*x }

// start takes the run at pixel s from the exact arithmetic: the rounded
// beam and range indices of ChildIndices, and the beam's edges.
func (w *nearestRuns) start(s int) {
	x, y := w.xy(s)
	n := w.g.NTheta
	w.k = min(max(int(math.Round(w.g.ThetaIndex(math.Atan2(y, x)))), -1), n)
	w.i = int(math.Round(w.g.RangeIndex(math.Hypot(x, y))))
	w.c = w.i - s
	if !w.exact {
		if w.k >= 0 {
			w.lo = w.edge(w.k)
		}
		if w.k < n {
			w.hi = w.edge(w.k + 1)
		}
	}
}

// next takes the run at pixel s, the pixel that ended the previous run,
// from the fast tests, and reports whether they decide it. Past one of
// the previous run's beam edges, the beam index steps by one and that
// edge becomes the new run's other edge. The range index is the
// truncated square-root range plus one half, or lies below or above the
// grid. Either within a margin of an edge leaves s to the exact path.
func (w *nearestRuns) next(s int) bool {
	x, y := w.xy(s)
	tol := beamMargin * (math.Abs(x) + y)
	k, n := w.k, w.g.NTheta
	switch {
	case k >= 0 && cross(w.lo, x, y) < -tol:
		k--
		w.hi = w.lo
		if k >= 0 {
			w.lo = w.edge(k)
		}
	case k < n && cross(w.hi, x, y) > tol:
		k++
		w.lo = w.hi
		if k < n {
			w.hi = w.edge(k + 1)
		}
	}
	if k >= 0 && cross(w.lo, x, y) <= tol || k < n && cross(w.hi, x, y) >= -tol {
		return false
	}
	w.k = k
	if k < 0 || k >= n {
		return true
	}
	t := (math.Sqrt(x*x+y*y)-w.g.R0)*w.inv + 0.5
	u := int(t)
	f := t - float64(u)
	switch {
	case t < -rangeMargin:
		w.i = -1
	case t >= float64(w.g.NR)+rangeMargin:
		w.i = w.g.NR
	case t > 0 && f > rangeMargin && f < 1-rangeMargin:
		w.i = u
	default:
		return false
	}
	w.c = w.i - s
	return true
}

// end returns the last pixel of the run that starts at s (s on the exact
// path). It probes where a run as long as the previous one would end,
// gallops on while probes pass or back toward s while they fail, and
// bisects between the last passing pixel and the first failing one. The
// run's test holds on a prefix of the beam, so a gallop from s would find
// the same pixel.
func (w *nearestRuns) end(s int) int {
	n := w.pg.NR
	if w.exact || s+1 >= n {
		return s
	}
	g := min(s+max(w.n-1, 1), n-1)
	var a, b int // a is in the run; b fails, or is n
	if w.in(g) {
		a, b = g, g+1
		for d := 2; b < n && w.in(b); d *= 2 {
			a, b = b, min(g+d, n)
		}
	} else {
		a, b = g-1, g
		for d := 2; a > s && !w.in(a); d *= 2 {
			a, b = max(g-d, s), a
		}
	}
	for b-a > 1 {
		if m := a + (b-a)/2; w.in(m) {
			a = m
		} else {
			b = m
		}
	}
	w.n = a - s + 1
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
	if w.k >= 0 && cross(w.lo, x, y) <= tol || w.k < n && cross(w.hi, x, y) >= -tol {
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
