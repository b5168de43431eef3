// Package geom implements the subaperture merge geometry of fast factorized
// back-projection: the cosine-theorem equations (paper eqs. 1-4) that map a
// pixel of a merged (parent) subaperture image onto the contributing pixels
// of its two child subaperture images, and the polar grids those images are
// sampled on.
//
// Conventions. A subaperture is a segment of the (nominally linear) flight
// track. Its polar image a(r, theta) is sampled relative to the subaperture
// centre, with theta measured from the flight-track direction, so theta =
// pi/2 is broadside and theta in (0, pi). A parent subaperture of length 2l
// is formed from two children of length l whose centres sit at -l/2 (the
// "minus", earlier-in-track child) and +l/2 (the "plus" child) relative to
// the parent centre.
package geom

import "math"

// ChildCoords maps a parent-image pixel at polar position (r, theta) to the
// corresponding positions (r1, theta1) in the minus child image and
// (r2, theta2) in the plus child image, where l is the child subaperture
// length (so the child centres are at -l/2 and +l/2 along the track).
//
// These are paper eqs. 1-4, evaluated in the numerically direct Cartesian
// form: with the target at (r cos theta, r sin theta), the child-relative
// coordinates follow from shifting the origin by -/+ l/2 along the track.
// The Cartesian form is algebraically identical to the cosine-theorem form
// but avoids the acos cancellation for points near the track axis.
func ChildCoords(r, theta, l float64) (r1, theta1, r2, theta2 float64) {
	x := r * math.Cos(theta)
	y := r * math.Sin(theta)
	h := l / 2
	r1 = math.Hypot(x+h, y)
	r2 = math.Hypot(x-h, y)
	theta1 = math.Atan2(y, x+h)
	theta2 = math.Atan2(y, x-h)
	return r1, theta1, r2, theta2
}

// ChildIndices evaluates paper eqs. 1-4 along one output beam of a
// base-2 merge: beam bt of the parent grid pg, whose children have length
// l and are sampled on the grids minus and plus. For every range bin bi it
// writes the fractional child indices into idx[4*bi : 4*bi+4] — (beam,
// range) in the minus grid, then (beam, range) in the plus grid, the plus
// pair displaced by (dBeam, dRange) pixels, the flight-path compensation
// of an autofocused merge. idx is the caller's scratch and must hold
// 4*pg.NR values.
//
// Per pixel the result is bit-identical to ChildCoords followed by
// ThetaIndex and RangeIndex (plus the displacement): theta is constant
// along the beam, so its cos/sin are evaluated once and the per-pixel
// trigonometry collapses to two multiplies. The paper's Epiphany kernel
// hoists the same per-beam terms into scalar variables.
func ChildIndices(idx []float64, pg PolarGrid, bt int, l float64, minus, plus PolarGrid, dBeam, dRange float64) {
	theta := pg.Theta(bt)
	ct, st := math.Cos(theta), math.Sin(theta)
	h := l / 2
	idx = idx[:4*pg.NR]
	for bi := 0; 4*bi < len(idx); bi++ {
		r := pg.Range(bi)
		x := r * ct
		y := r * st
		xp, xm := x+h, x-h
		c := (*[4]float64)(idx[4*bi:])
		c[0] = minus.ThetaIndex(math.Atan2(y, xp))
		c[1] = minus.RangeIndex(math.Hypot(xp, y))
		c[2] = plus.ThetaIndex(math.Atan2(y, xm)) + dBeam
		c[3] = plus.RangeIndex(math.Hypot(xm, y)) + dRange
	}
}

// PolarGrid describes the sampling of a subaperture image: NR range bins
// spanning [R0, R0 + (NR-1)*DR] and NTheta angle bins spanning
// [Theta0, Theta0 + (NTheta-1)*DTheta]. A stage-0 subaperture (a single
// pulse) has NTheta == 1: one wide beam covering the whole angular interval.
type PolarGrid struct {
	NR     int
	R0, DR float64

	NTheta         int
	Theta0, DTheta float64
}

// NewPolarGrid builds a grid with nr range bins from r0 spaced dr, and
// ntheta angle bins spanning the closed interval [thetaMin, thetaMax]
// placed at bin centres: bin k covers thetaMin + k*W .. thetaMin + (k+1)*W
// with W = (thetaMax-thetaMin)/ntheta, sampled at the centre.
func NewPolarGrid(nr int, r0, dr float64, ntheta int, thetaMin, thetaMax float64) PolarGrid {
	w := (thetaMax - thetaMin) / float64(ntheta)
	return PolarGrid{
		NR: nr, R0: r0, DR: dr,
		NTheta: ntheta,
		Theta0: thetaMin + w/2,
		DTheta: w,
	}
}

// Range returns the range of bin i.
func (g PolarGrid) Range(i int) float64 { return g.R0 + float64(i)*g.DR }

// Theta returns the angle of bin k.
func (g PolarGrid) Theta(k int) float64 { return g.Theta0 + float64(k)*g.DTheta }

// RangeIndex returns the fractional bin index of range r.
func (g PolarGrid) RangeIndex(r float64) float64 { return (r - g.R0) / g.DR }

// ThetaIndex returns the fractional bin index of angle theta.
func (g PolarGrid) ThetaIndex(theta float64) float64 { return (theta - g.Theta0) / g.DTheta }

// Aperture describes one subaperture of the factorization: its centre
// position along the track (metres, in scene coordinates) and its length.
type Aperture struct {
	Center float64
	Length float64
}

// Stage0 returns the np length-d apertures of the initial factorization of
// a track that starts at u0: aperture i is the single pulse at
// u0 + (i+0.5)*d.
func Stage0(np int, u0, d float64) []Aperture {
	out := make([]Aperture, np)
	for i := range out {
		out[i] = Aperture{Center: u0 + (float64(i)+0.5)*d, Length: d}
	}
	return out
}

// MergeStage returns the apertures of the next stage, pairing consecutive
// apertures of the current stage. len(cur) must be even.
func MergeStage(cur []Aperture) []Aperture {
	if len(cur)%2 != 0 {
		panic("geom: MergeStage needs an even number of apertures")
	}
	out := make([]Aperture, len(cur)/2)
	for j := range out {
		a, b := cur[2*j], cur[2*j+1]
		out[j] = Aperture{
			Center: (a.Center + b.Center) / 2,
			Length: a.Length + b.Length,
		}
	}
	return out
}
