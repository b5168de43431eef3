// Package kernels contains the paper's two case-study implementations
// mapped onto the simulated machines: the SPMD fast-factorized
// back-projection (Sec. V-B) and the MPMD streaming autofocus criterion
// calculation (Sec. V-C), each in a sequential variant (runs on any
// machine.Machine — the Intel reference model or a single Epiphany core)
// and a parallel variant (runs on an emu.Chip).
//
// Kernels perform the real arithmetic — producing images and criterion
// values bit-identical to the host implementations in packages ffbp, gbp
// and autofocus — while charging their machine for every modeled
// operation. No kernel holds a copy of the host arithmetic: the FFBP
// kernels take their child samples from geom.NearestBins and their
// rotations from cf.Expi, the functions ffbp calls; SeqAutofocus scores
// with autofocus.Criterion, and the pipeline nodes with interp.Neville4
// and autofocus.Correlate; SeqGBP's loop makes gbp.ImageRef's
// math.Hypot, RangeIndex and cf.Expi calls. The kernels add the charges
// and the modeled loads and stores.
// The operation charges follow the paper's described implementation: the
// cosine-theorem index generation with fused multiply-adds and the
// simplified square root, nearest-neighbour interpolation for FFBP, and
// Neville cubic interpolation for autofocus.
package kernels

import "sarmany/internal/machine"

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
// addressing (IOp 2) and the Neville kernel (FMA 24, Flop 6); a beam
// node's column per shift is three windows of tap addressing and the
// Neville kernel; the correlation node's criterion is nine pixels of two
// |z|^2 (FMA 2 each) and a multiply-accumulate. SeqAutofocus also runs on
// refcpu, whose fractional IOp price would round a batch differently, so
// chargeCriterion charges the same steps one call each.
var (
	rangeShift    = machine.Ops{FMA: 6 * (1 + 24), Flop: 6 * 6, IOp: 6 * 2}
	beamShift     = machine.Ops{FMA: 3 * 24, Flop: 3 * 6, IOp: 3 * 2}
	corrCriterion = machine.Ops{FMA: 9 * (2 + 2 + 1)}
)

// sampleNN performs the nearest-neighbour lookup of one child sample:
// off is its element offset past base in img, from geom.NearestBins, or
// -1 when it lies outside the child's grid (the paper's "skip the
// additions with zero when the indices are out of range"). The load is
// its only charge; the caller charges the index work, rounding and
// bounds test included. It matches interp.At2(..., interp.Nearest).
func sampleNN(m machine.Machine, img *machine.BufC, base int, off int32) complex64 {
	if off < 0 {
		return 0
	}
	return img.Load(m, base+int(off))
}
