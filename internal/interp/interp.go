// Package interp provides the interpolation kernels of the SAR processing
// chain: the simplified nearest-neighbour interpolation the paper's FFBP
// implementation uses for index generation, linear interpolation, and the
// cubic interpolation based on Neville's algorithm used by the autofocus
// criterion calculation.
//
// All kernels treat out-of-range sample positions as zero contributions,
// matching the paper's optimization of "skipping the additions with zero
// when the indices are out of range".
package interp

import (
	"fmt"
	"math"

	"sarmany/internal/cf"
	"sarmany/internal/mat"
)

// CubicTaps is the number of samples the cubic (Neville) kernel consumes
// per interpolated output.
const CubicTaps = 4

// Kind selects an interpolation kernel.
type Kind int

const (
	// Nearest rounds the fractional index to the nearest integer sample.
	Nearest Kind = iota
	// Linear blends the two surrounding samples.
	Linear
	// Cubic fits a third-degree polynomial through the four surrounding
	// samples using Neville's algorithm.
	Cubic
	// Sinc8 applies an eight-tap Hann-windowed sinc kernel — the
	// high-fidelity interpolator for band-limited (range-compressed) data,
	// at twice the taps of Cubic.
	Sinc8
)

// String returns the kernel name.
func (k Kind) String() string {
	switch k {
	case Nearest:
		return "nearest"
	case Linear:
		return "linear"
	case Cubic:
		return "cubic"
	case Sinc8:
		return "sinc8"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Taps returns the number of input samples the kernel reads per output.
func (k Kind) Taps() int {
	switch k {
	case Nearest:
		return 1
	case Linear:
		return 2
	case Cubic:
		return 4
	case Sinc8:
		return 8
	default:
		panic("interp: unknown kind")
	}
}

// At1 interpolates the sample sequence v at fractional index x using kernel
// k. Positions outside [0, len(v)-1] use zero for the missing samples;
// positions more than one tap support outside the sequence return 0.
func At1(v []complex64, x float64, k Kind) complex64 {
	// Far outside the support every tap is zero; return early so absurd
	// positions (including ones whose float->int conversion would
	// overflow) yield an exact 0 instead of NaN arithmetic. The last valid
	// sample index is len(v)-1, so the upper bound is len(v)-1+Taps — the
	// symmetric mirror of the lower bound, not len(v)+Taps (which silently
	// admitted positions a full bin past the end of the support).
	if x < -float64(k.Taps()) || x > float64(len(v)-1+k.Taps()) {
		return 0
	}
	switch k {
	case Nearest:
		i := int(math.Round(x))
		if i < 0 || i >= len(v) {
			return 0
		}
		return v[i]
	case Linear:
		i := int(math.Floor(x))
		t := float32(x - float64(i))
		a := sample(v, i)
		b := sample(v, i+1)
		return complex(
			real(a)+t*(real(b)-real(a)),
			imag(a)+t*(imag(b)-imag(a)),
		)
	case Cubic:
		i := int(math.Floor(x))
		var s [4]complex64
		for j := 0; j < 4; j++ {
			s[j] = sample(v, i-1+j)
		}
		return Neville4(s, float32(x-float64(i-1)))
	case Sinc8:
		i := int(math.Floor(x))
		var accR, accI float64
		for j := 0; j < 8; j++ {
			idx := i - 3 + j
			s := sample(v, idx)
			if s == 0 {
				continue
			}
			w := sincHann(x-float64(idx), 4)
			accR += w * float64(real(s))
			accI += w * float64(imag(s))
		}
		return complex(float32(accR), float32(accI))
	default:
		panic("interp: unknown kind")
	}
}

// sincHann is the Hann-windowed sinc kernel value at offset d (samples)
// with half-width hw.
func sincHann(d float64, hw float64) float64 {
	if d <= -hw || d >= hw {
		return 0
	}
	s := 1.0
	if d != 0 {
		s = math.Sin(math.Pi*d) / (math.Pi * d)
	}
	return s * 0.5 * (1 + math.Cos(math.Pi*d/hw))
}

func sample(v []complex64, i int) complex64 {
	if i < 0 || i >= len(v) {
		return 0
	}
	return v[i]
}

// Neville4 evaluates at position t (in units of the sample spacing, with
// sample j at position j) the cubic polynomial through the four samples s.
// This is Neville's iterated interpolation (paper ref. [16]) specialized to
// four equidistant points, the kernel the autofocus range and beam
// interpolators run on the Epiphany cores.
func Neville4(s [4]complex64, t float32) complex64 {
	// First Neville sweep: degree-1 interpolants on (0,1), (1,2), (2,3).
	p01 := nev(s[0], s[1], t-0, 1)
	p12 := nev(s[1], s[2], t-1, 1)
	p23 := nev(s[2], s[3], t-2, 1)
	// Second sweep: degree-2 on (0,2), (1,3).
	p02 := nev(p01, p12, t-0, 2)
	p13 := nev(p12, p23, t-1, 2)
	// Final sweep: degree-3 on (0,3).
	return nev(p02, p13, t-0, 3)
}

// nev combines two lower-degree Neville interpolants pa (anchored at the
// left point) and pb (anchored one step right) for local coordinate u =
// t - xLeft over a span of width w.
func nev(pa, pb complex64, u, w float32) complex64 {
	// P(t) = ((x_right - t) * pa + (t - x_left) * pb) / (x_right - x_left)
	//      = pa + u/w * (pb - pa)
	c := u / w
	return complex(
		real(pa)+c*(real(pb)-real(pa)),
		imag(pa)+c*(imag(pb)-imag(pa)),
	)
}

// At2 interpolates the polar/matrix image img at fractional row index ri
// and column index ci using the separable tensor product of kernel k:
// first along each contributing row (columns), then across rows. Out-of-
// range taps contribute zero.
func At2(img *mat.C, ri, ci float64, k Kind) complex64 {
	// Same early out-of-support guard as At1, on both axes: beyond
	// ±Taps of the valid index range [0, n-1] every tap is zero.
	t := float64(k.Taps())
	if ri < -t || ri > float64(img.Rows-1)+t || ci < -t || ci > float64(img.Cols-1)+t {
		return 0
	}
	switch k {
	case Nearest:
		r := int(math.Round(ri))
		c := int(math.Round(ci))
		if r < 0 || r >= img.Rows || c < 0 || c >= img.Cols {
			return 0
		}
		return img.At(r, c)
	case Linear, Cubic, Sinc8:
		taps := k.Taps()
		r0 := int(math.Floor(ri)) - (taps/2 - 1)
		var col [8]complex64 // max taps
		for j := 0; j < taps; j++ {
			r := r0 + j
			if r < 0 || r >= img.Rows {
				col[j] = 0
				continue
			}
			col[j] = At1(img.Row(r), ci, k)
		}
		return At1(col[:taps], ri-float64(r0), k)
	default:
		panic("interp: unknown kind")
	}
}

// At1Fused interpolates v at fractional index x with kernel k and returns
// the sample already rotated by exp(i*phi) — the fused interpolate+rotate
// primitive of the back-projection hot path. Fusing the two steps removes
// the intermediate complex64 round trip through the caller and replaces
// the per-sample math.Sincos with cf.FastSincos (float32-targeted, within
// 1 ULP of the reference per component). Out-of-support positions and
// exact-zero samples return literal 0 without evaluating the rotation,
// which is bit-identical to accumulating the product: the rotation of an
// exact zero is +0 on both components, and adding ±0 to a float32
// accumulator never changes it (the accumulator can never become -0 by
// summation), so `acc += At1Fused(...)` with the skip equals the unskipped
// form sample-for-sample.
func At1Fused(v []complex64, x float64, k Kind, phi float32) complex64 {
	s := At1(v, x, k)
	if s == 0 {
		return 0
	}
	sn, cs := cf.FastSincos(phi)
	return complex(
		real(s)*cs-imag(s)*sn,
		real(s)*sn+imag(s)*cs,
	)
}
