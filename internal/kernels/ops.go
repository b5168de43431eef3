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

	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/machine"
)

// beamSetup is the per-beam hoisted work of the back-projection inner
// loops (paper: the optimization of using scalar variables to maximize
// register-file use hoists these out of the pixel loop): the sincos of
// the output beam angle (Trig 2), the beam angle and the x/y step
// constants (FMA 4), and the row pointers (IOp 4).
var beamSetup = machine.Ops{FMA: 4, IOp: 4, Trig: 2}

// An FFBP merge pixel charges three batches, one before each memory
// access. toMinusLoad is the range step r = R0 + bi*DR (FMA 1), the
// cosine-theorem index generation of paper eqs. 1-4 (two fused
// multiply-add chains, FMA 10; the paper's fast software square root per
// range, Sqrt 2; a divide and an inverse cosine per angle, Div 2 and
// Trig 2), and the minus child's sampleLookup: its two fractional indices
// (FMA 2), rounds (Flop 2), and bounds tests and address arithmetic
// (IOp 4). Then comes the plus child's sampleLookup, and toStore, the
// combining complex add of paper eq. 5 (Flop 2). A batch's integer work
// is the last work it charges, which lets refcpu price it in one step.
var (
	toMinusLoad  = machine.Ops{FMA: 1 + 10 + 2, Flop: 2, IOp: 4, Div: 2, Sqrt: 2, Trig: 2}
	sampleLookup = machine.Ops{FMA: 2, Flop: 2, IOp: 4}
	toStore      = machine.Ops{Flop: 2}
)

// The autofocus pipeline nodes (ParAutofocusMulti) run only on Epiphany
// cores and charge one batch per unit of work: the sum of the operations
// the unit performs, priced to the same bits as charging them one at a
// time, since between two link transfers a core only adds integers. A
// range node's window per shift is six rows, each an offset FMA, the tap
// addressing (IOp 2) and neville4 (FMA 24, Flop 6); a beam node's column
// per shift is three windows of tap addressing and neville4; the
// correlation node's criterion is nine pixels of two abs2 (FMA 2 each)
// and a multiply-accumulate. SeqAutofocus also runs on refcpu, whose
// fractional IOp price would round a batch differently, so it keeps
// charging per call.
var (
	rangeShift    = machine.Ops{FMA: 6 * (1 + 24), Flop: 6 * 6, IOp: 6 * 2}
	beamShift     = machine.Ops{FMA: 3 * 24, Flop: 3 * 6, IOp: 3 * 2}
	corrCriterion = machine.Ops{FMA: 9 * (2 + 2 + 1)}
)

// sampleNN performs the nearest-neighbour interpolation lookup of one
// child-subaperture sample at fractional (beam, range) index (ti, ri):
// the rounding, the out-of-range test (the paper's "skip the additions
// with zero when the indices are out of range"), and the 64-bit load of
// the complex pixel, which is the only charge; the caller charges the
// lookup's index work. img holds the child image row-major on grid g,
// starting at element base. The arithmetic matches interp.At2(...,
// interp.Nearest) exactly.
func sampleNN(m machine.Machine, img *machine.BufC, base int, g geom.PolarGrid, ti, ri float64) complex64 {
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
	// 6 Neville steps x 4 scalar FMAs (complex lerp), and 6 coefficient
	// computations u*invW.
	m.Charge(machine.Ops{FMA: 24, Flop: 6})
	return interp.Neville4(s, t)
}

// abs2 charges and evaluates |z|^2 (a multiply and a fused multiply-add).
func abs2(m machine.Machine, z complex64) float32 {
	m.Charge(machine.Ops{FMA: 2})
	re, im := real(z), imag(z)
	return re*re + im*im
}
