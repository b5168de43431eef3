// Package kernels contains the paper's two case-study implementations
// mapped onto the simulated machines: the SPMD fast-factorized
// back-projection (Sec. V-B) and the MPMD streaming autofocus criterion
// calculation (Sec. V-C), each in a sequential variant (runs on any
// machine.Machine — the Intel reference model or a single Epiphany core)
// and a parallel variant (runs on an emu.Chip).
//
// Kernels perform the real arithmetic — producing images and criterion
// values bit-identical to the host implementations in packages ffbp and
// autofocus — while charging their machine for every modeled operation.
// The FFBP kernels hold no copy of the host arithmetic: their child
// indices come from geom.ChildIndices and their rotations from cf.Expi,
// the functions ffbp calls, and the kernels add only the charges.
// The operation charges follow the paper's described implementation: the
// cosine-theorem index generation with fused multiply-adds and the
// simplified square root, nearest-neighbour interpolation for FFBP, and
// Neville cubic interpolation for autofocus.
package kernels

import (
	"math"

	"sarmany/internal/cf"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/machine"
)

// chargeBeamSetup charges the per-beam hoisted work of the FFBP inner
// loops: the sincos of the output beam angle and the derived loop
// constants (paper: the optimization of using scalar variables to maximize
// register-file use hoists these out of the pixel loop).
func chargeBeamSetup(m machine.Machine) {
	m.Trig(2) // sin(theta), cos(theta)
	m.FMA(4)  // beam angle, x/y step constants
	m.IOp(4)  // row pointers
}

// chargeChildCoords charges the per-pixel cost of the cosine-theorem index
// generation (paper eqs. 1-4): two fused multiply-add chains and square
// roots for the ranges (eqs. 1-2, with the paper's fast software square
// root), and a divide plus inverse-cosine each for the angles (eqs. 3-4).
// The per-beam trigonometry is hoisted by chargeBeamSetup; the indices
// themselves come from geom.ChildIndices.
func chargeChildCoords(m machine.Machine) {
	m.FMA(10)
	m.Sqrt(2)
	m.Div(2)
	m.Trig(2)
}

// sampleNN performs the nearest-neighbour interpolation lookup of one
// child-subaperture sample at fractional (beam, range) index (ti, ri):
// the rounding, the out-of-range test (the paper's "skip the additions
// with zero when the indices are out of range"), and the 64-bit load of
// the complex pixel. img holds the child image row-major on grid g,
// starting at element base. The arithmetic matches interp.At2(...,
// interp.Nearest) exactly.
func sampleNN(m machine.Machine, img *machine.BufC, base int, g geom.PolarGrid, ti, ri float64) complex64 {
	m.FMA(2)  // two fractional index computations
	m.Flop(2) // two rounds
	m.IOp(4)  // bounds tests and address arithmetic
	t, r := int(math.Round(ti)), int(math.Round(ri))
	if t < 0 || t >= g.NTheta || r < 0 || r >= g.NR {
		return 0
	}
	return img.Load(m, base+t*g.NR+r)
}

// neville4 evaluates the four-tap Neville cubic interpolation kernel on
// values already held in registers, charging its FPU work: six first-order
// combinations, each a complex scale-and-accumulate (paper ref. [16]; the
// autofocus interpolators run this in both the range and beam stages).
func neville4(m machine.Machine, s [4]complex64, t float32) complex64 {
	m.FMA(24) // 6 nev steps x 4 scalar FMAs (complex lerp)
	m.Flop(6) // 6 coefficient computations u*invW
	return interp.Neville4(s, t)
}

// expi charges and evaluates exp(i*phi) — one software sincos — with the
// host's cf.Expi.
func expi(m machine.Machine, phi float32) complex64 {
	m.Trig(1)
	return cf.Expi(phi)
}

// cmul charges and evaluates a complex multiply (four scalar FMAs on the
// Epiphany; two multiplies and two multiply-adds elsewhere).
func cmul(m machine.Machine, a, b complex64) complex64 {
	m.FMA(4)
	return a * b
}

// cadd charges and evaluates a complex add — the element combining of
// paper eq. 5.
func cadd(m machine.Machine, a, b complex64) complex64 {
	m.Flop(2)
	return a + b
}

// abs2 charges and evaluates |z|^2 (a multiply and a fused multiply-add).
func abs2(m machine.Machine, z complex64) float32 {
	m.FMA(2)
	re, im := real(z), imag(z)
	return re*re + im*im
}
