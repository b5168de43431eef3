// Package fft implements an iterative radix-2 fast Fourier transform over
// complex64 data, plus the amplitude tapers (windows) that weight the chirp
// replica for sidelobe control. The SAR front end builds its pulse
// compression (matched filtering of the received chirp) on these plans.
//
// The transforms are deliberately plain: single precision, power-of-two
// lengths, no SIMD — they model the arithmetic a signal-processing chain
// would run ahead of the back-projection stage that the paper evaluates.
package fft

import (
	"fmt"
	"math"
	"math/bits"

	"sarmany/internal/cf"
)

// Plan holds the twiddle factors and bit-reversal permutation for a fixed
// power-of-two transform length, so repeated transforms of the same size
// avoid recomputing trigonometry.
type Plan struct {
	n       int
	logn    uint
	rev     []int
	twiddle []complex64 // forward twiddles, n/2 entries
}

// NewPlan creates a plan for transforms of length n. n must be a power of
// two and at least 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a positive power of two", n)
	}
	p := &Plan{
		n:       n,
		logn:    uint(bits.TrailingZeros(uint(n))),
		rev:     make([]int, n),
		twiddle: make([]complex64, n/2),
	}
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - int(p.logn)))
	}
	for i := range p.twiddle {
		phi := -2 * math.Pi * float64(i) / float64(n)
		s, c := math.Sincos(phi)
		p.twiddle[i] = complex(float32(c), float32(s))
	}
	return p, nil
}

// MustPlan is NewPlan that panics on error; for lengths known at compile
// time.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the transform length of the plan.
func (p *Plan) N() int { return p.n }

// Forward computes the in-place forward DFT of x. len(x) must equal the
// plan length.
func (p *Plan) Forward(x []complex64) {
	p.transform(x, false)
}

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalization. len(x) must equal the plan length.
func (p *Plan) Inverse(x []complex64) {
	p.transform(x, true)
	scale := float32(1) / float32(p.n)
	for i := range x {
		x[i] = cf.Scale(scale, x[i])
	}
}

func (p *Plan) transform(x []complex64, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: data length %d does not match plan length %d", len(x), p.n))
	}
	// Bit-reversal permutation.
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Cooley–Tukey butterflies.
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[ti]
				if inverse {
					w = cf.Conj(w)
				}
				u := x[k]
				v := x[k+half] * w
				x[k] = u + v
				x[k+half] = u - v
				ti += step
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << (bits.Len(uint(n - 1)))
}
