package fft

import (
	"fmt"
	"math"

	"sarmany/internal/cf"
)

// Window functions for sidelobe control. Matched filtering an unweighted
// chirp leaves -13 dB range sidelobes; amplitude-weighting the reference
// replica trades mainlobe width for lower sidelobes — a standard knob in
// the SAR processing chain ahead of back-projection.

// WindowKind selects an amplitude taper.
type WindowKind int

// Supported tapers.
const (
	// Rect is the identity window (no taper).
	Rect WindowKind = iota
	// Hann is the raised-cosine window (first sidelobe -31 dB).
	Hann
	// Hamming is the optimized raised-cosine (first sidelobe -42 dB).
	Hamming
	// Taylor is the SAR-standard Taylor window with nbar = 4 and -35 dB
	// design sidelobe level.
	Taylor
)

// String returns the taper name.
func (k WindowKind) String() string {
	switch k {
	case Rect:
		return "rect"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Taylor:
		return "taylor"
	default:
		return fmt.Sprintf("WindowKind(%d)", int(k))
	}
}

// Window returns the n coefficients of taper k.
func Window(k WindowKind, n int) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	switch k {
	case Rect:
		for i := range w {
			w[i] = 1
		}
	case Hann:
		for i := range w {
			w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
		}
		if n == 1 {
			w[0] = 1
		}
	case Hamming:
		for i := range w {
			w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
		}
		if n == 1 {
			w[0] = 1
		}
	case Taylor:
		return taylor(n, 4, 35)
	default:
		panic(fmt.Sprintf("fft: unknown window %v", k))
	}
	return w
}

// taylor computes the Taylor window with nbar nearly-constant sidelobes at
// the given design level (dB below the mainlobe).
func taylor(n, nbar int, sllDB float64) []float64 {
	a := math.Acosh(math.Pow(10, sllDB/20)) / math.Pi
	a2 := a * a
	sp2 := float64(nbar*nbar) / (a2 + (float64(nbar)-0.5)*(float64(nbar)-0.5))

	// Fm coefficients.
	fm := make([]float64, nbar)
	for m := 1; m < nbar; m++ {
		num := 1.0
		den := 1.0
		for i := 1; i < nbar; i++ {
			num *= 1 - float64(m*m)/(sp2*(a2+(float64(i)-0.5)*(float64(i)-0.5)))
			if i != m {
				den *= 1 - float64(m*m)/float64(i*i)
			}
		}
		sign := 1.0 // (-1)^(m+1): positive for odd m
		if m%2 == 0 {
			sign = -1
		}
		fm[m] = sign * num / (2 * den)
	}

	w := make([]float64, n)
	for i := range w {
		x := (float64(i) - (float64(n)-1)/2) / float64(n) // -0.5 .. 0.5
		v := 1.0
		for m := 1; m < nbar; m++ {
			v += 2 * fm[m] * math.Cos(2*math.Pi*float64(m)*x)
		}
		w[i] = v
	}
	// Normalize the peak to 1.
	max := 0.0
	for _, v := range w {
		if v > max {
			max = v
		}
	}
	for i := range w {
		w[i] /= max
	}
	return w
}

// ApplyWindow multiplies x element-wise by the taper coefficients. It
// panics if the lengths differ.
func ApplyWindow(x []complex64, w []float64) {
	if len(x) != len(w) {
		panic(fmt.Sprintf("fft: window length %d does not match data length %d", len(w), len(x)))
	}
	for i := range x {
		x[i] = cf.Scale(float32(w[i]), x[i])
	}
}
