// Package gbp implements global back-projection (GBP), the exact
// time-domain SAR image-formation baseline that fast factorized
// back-projection approximates. For every output pixel it integrates the
// matched-filtered response along the pixel's exact range history over all
// pulses (paper Sec. II), so its cost is O(pixels x pulses) — the
// motivation for FFBP's O(pixels x log pulses) factorization.
//
// Two host implementations are kept side by side:
//
//   - Image is the fused fast path: the (beam x range-bin) pixel loops are
//     flattened into a single index space tiled across goroutines, the
//     per-beam cos/sin and per-pulse track positions are hoisted into
//     shared read-only buffers, and the inner per-pulse step runs the
//     fused interpolate+rotate primitive (interp.At1Fused) with a plain
//     sqrt range evaluation.
//   - ImageRef is the retained unfused reference: beam-sliced fan-out,
//     per-sample math.Hypot + interp.At1 + math.Sincos. The simulator-side
//     kernels (internal/kernels) pin bit-identity against ImageRef; Image
//     is pinned against ImageRef within a tight ULP bound by the
//     equivalence suite in fused_test.go.
package gbp

import (
	"math"

	"sarmany/internal/cf"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
)

// Config controls image formation.
type Config struct {
	// Interp selects the data interpolation kernel; Linear is the usual
	// high-quality choice for the GBP reference image.
	Interp interp.Kind
	// Workers is the number of goroutines to use; 0 means GOMAXPROCS.
	Workers int
}

// Image back-projects pulse-compressed data onto the polar grid, which must
// be expressed relative to the full-aperture centre (track position 0).
// Row k of the result is beam k of the grid, column i is range bin i.
//
// This is the fused fast path. Its numeric contract: every pixel matches
// ImageRef within a few float32 ULPs of the image peak (the fused rotation
// is within 1 ULP per sample; the sqrt range can flip a last-ULP range
// bin with vanishing probability), pinned by TestFusedMatchesRefImage.
// Zero interpolated samples contribute exactly nothing to the accumulator
// in both paths — see the skip-policy note on backproject.
func Image(data *mat.C, p sar.Params, grid geom.PolarGrid, cfg Config) *mat.C {
	checkShape(data, p)
	img := mat.NewC(grid.NTheta, grid.NR)
	k := 4 * math.Pi / p.Wavelength

	// Hoisted per-pulse and per-beam precomputation, shared read-only by
	// every tile: track positions, data rows, beam direction cosines.
	us := make([]float64, p.NumPulses)
	rows := make([][]complex64, p.NumPulses)
	for i := range us {
		us[i] = p.TrackPos(i)
		rows[i] = data.Row(i)
	}
	cts := make([]float64, grid.NTheta)
	sts := make([]float64, grid.NTheta)
	for bt := 0; bt < grid.NTheta; bt++ {
		theta := grid.Theta(bt)
		cts[bt] = math.Cos(theta)
		sts[bt] = math.Sin(theta)
	}

	// Flatten the (beam, range-bin) loops into one pixel index space so
	// the tiles stay balanced even when NTheta < workers (the beam-sliced
	// fan-out of ImageRef idles workers there).
	mat.Parallel(grid.NTheta*grid.NR, cfg.Workers, func(lo, hi int) {
		backprojectFused(rows, img, grid, us, cts, sts, k, lo, hi, cfg.Interp)
	})
	return img
}

// backprojectFused computes the flattened pixel range [lo, hi) of img.
// Pixel px maps to beam px/NR, range bin px%NR. The per-pulse inner loop
// is the fused hot path: one sqrt for the range history and one fused
// interpolate+rotate per sample, accumulating in pulse order — the same
// order as the reference, so the two paths differ only in rounding, never
// in accumulation order.
//
// The Nearest and Linear kernels — the paper's FFBP kernel and the usual
// GBP reference kernel — are specialized inline so the inner loop runs
// call-free except for the sincos; their interpolation arithmetic copies
// interp.At1's expressions verbatim (guard bound, index rounding, lerp
// form), which the equivalence suite pins against ImageRef. The remaining
// kernels go through the generic fused primitive.
func backprojectFused(rows [][]complex64, img *mat.C, grid geom.PolarGrid, us, cts, sts []float64, k float64, lo, hi int, kind interp.Kind) {
	nr := grid.NR
	r0 := grid.R0
	// Reciprocal multiply for the bin index: differs from the reference's
	// division by at most 1 ULP of the index (~1e-14 bins here), the same
	// class of last-ULP drift as sqrt-vs-hypot, covered by the pinned
	// equivalence bound.
	invDR := 1 / grid.DR
	for px := lo; px < hi; px++ {
		bt := px / nr
		bi := px - bt*nr
		r := grid.Range(bi)
		x := r * cts[bt]
		y := r * sts[bt]
		y2 := y * y
		var accR, accI float32
		switch kind {
		case interp.Nearest:
			for pi, u := range us {
				dx := x - u
				rp := math.Sqrt(dx*dx + y2)
				row := rows[pi]
				i := int(math.Round((rp - r0) * invDR))
				if uint(i) >= uint(len(row)) {
					continue
				}
				v := row[i]
				if v == 0 {
					continue
				}
				sn, cs := cf.FastSincos(float32(k * rp))
				vr, vi := real(v), imag(v)
				accR += vr*cs - vi*sn
				accI += vr*sn + vi*cs
			}
		case interp.Linear:
			for pi, u := range us {
				dx := x - u
				rp := math.Sqrt(dx*dx + y2)
				row := rows[pi]
				n := len(row)
				xi := (rp - r0) * invDR
				if xi < -2 || xi > float64(n+1) {
					continue
				}
				i := int(math.Floor(xi))
				t := float32(xi - float64(i))
				var va, vb complex64
				if uint(i) < uint(n) {
					va = row[i]
				}
				if j := i + 1; uint(j) < uint(n) {
					vb = row[j]
				}
				vr := real(va) + t*(real(vb)-real(va))
				vi := imag(va) + t*(imag(vb)-imag(va))
				if vr == 0 && vi == 0 {
					continue
				}
				sn, cs := cf.FastSincos(float32(k * rp))
				accR += vr*cs - vi*sn
				accI += vr*sn + vi*cs
			}
		default:
			for pi, u := range us {
				dx := x - u
				rp := math.Sqrt(dx*dx + y2)
				v := interp.At1Fused(rows[pi], (rp-r0)*invDR, kind, float32(k*rp))
				accR += real(v)
				accI += imag(v)
			}
		}
		img.Row(bt)[bi] = complex(accR, accI)
	}
}

// ImageRef is the retained unfused reference implementation of Image:
// beam-sliced parallelism, per-sample math.Hypot range evaluation and
// separate interpolate / math.Sincos rotate steps. It defines the numeric
// ground truth the fused path and the simulator kernels are pinned
// against.
func ImageRef(data *mat.C, p sar.Params, grid geom.PolarGrid, cfg Config) *mat.C {
	checkShape(data, p)
	img := mat.NewC(grid.NTheta, grid.NR)
	k := 4 * math.Pi / p.Wavelength

	// Precompute pulse track positions.
	us := make([]float64, p.NumPulses)
	for i := range us {
		us[i] = p.TrackPos(i)
	}

	mat.Parallel(grid.NTheta, cfg.Workers, func(lo, hi int) {
		backproject(data, img, grid, us, k, lo, hi, cfg.Interp)
	})
	return img
}

// checkShape panics unless data has the shape the params describe.
func checkShape(data *mat.C, p sar.Params) {
	if data.Rows != p.NumPulses || data.Cols != p.NumBins {
		panic("gbp: data dimensions do not match params")
	}
}

// backproject is the reference inner loop (beam-major, unfused).
//
// Skip policy: an interpolated sample that is exactly zero is skipped
// instead of accumulated — the paper's "skipping the additions with zero
// when the indices are out of range". The skip is observationally
// equivalent to accumulating the product: rotating an exact zero yields
// ±0 on each component, and adding ±0 to a float32 accumulator that is
// not -0 changes nothing — the accumulator starts at +0 and summation
// can never produce -0 from there (+0 + -0 is +0 in round-to-nearest).
// TestZeroSkipPolicyBitIdentical pins this, so the fused path (whose
// At1Fused returns literal 0 for zero samples) agrees sample-for-sample.
func backproject(data, img *mat.C, grid geom.PolarGrid, us []float64, k float64, lo, hi int, kind interp.Kind) {
	for bt := lo; bt < hi; bt++ {
		theta := grid.Theta(bt)
		ct, st := math.Cos(theta), math.Sin(theta)
		row := img.Row(bt)
		for bi := 0; bi < grid.NR; bi++ {
			r := grid.Range(bi)
			x := r * ct
			y := r * st
			var acc complex64
			for pi, u := range us {
				rp := math.Hypot(x-u, y)
				v := interp.At1(data.Row(pi), grid.RangeIndex(rp), kind)
				if v == 0 {
					continue
				}
				acc += v * cf.Expi(float32(k*rp))
			}
			row[bi] = acc
		}
	}
}
