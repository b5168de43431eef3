package fft

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestWindowNames(t *testing.T) {
	if Rect.String() != "rect" || Hann.String() != "hann" ||
		Hamming.String() != "hamming" || Taylor.String() != "taylor" {
		t.Error("window names")
	}
	if WindowKind(9).String() != "WindowKind(9)" {
		t.Error("unknown name")
	}
}

func TestWindowBasics(t *testing.T) {
	for _, k := range []WindowKind{Rect, Hann, Hamming, Taylor} {
		for _, n := range []int{1, 2, 33, 128} {
			w := Window(k, n)
			if len(w) != n {
				t.Fatalf("%v n=%d: length %d", k, n, len(w))
			}
			for i, v := range w {
				if v < -1e-12 || v > 1+1e-9 {
					t.Fatalf("%v n=%d: w[%d]=%v outside [0,1]", k, n, i, v)
				}
			}
			// Symmetric.
			for i := 0; i < n/2; i++ {
				if math.Abs(w[i]-w[n-1-i]) > 1e-9 {
					t.Fatalf("%v n=%d: asymmetric at %d (%v vs %v)", k, n, i, w[i], w[n-1-i])
				}
			}
		}
	}
	if Window(Rect, 0) != nil {
		t.Error("n=0 should be nil")
	}
}

func TestWindowPeaks(t *testing.T) {
	// All windows peak at ~1 in the middle.
	for _, k := range []WindowKind{Rect, Hann, Hamming, Taylor} {
		w := Window(k, 65)
		if math.Abs(w[32]-1) > 0.09 {
			t.Errorf("%v: centre %v", k, w[32])
		}
	}
	// Hann ends at 0, Hamming at 0.08.
	if h := Window(Hann, 65); h[0] > 1e-9 {
		t.Errorf("Hann edge %v", h[0])
	}
	if h := Window(Hamming, 65); math.Abs(h[0]-0.08) > 1e-9 {
		t.Errorf("Hamming edge %v", h[0])
	}
}

// spectrumSidelobe measures the highest spectral sidelobe (dB) of a
// window by zero-padded FFT.
func spectrumSidelobe(w []float64) float64 {
	n := len(w)
	pad := NextPow2(n * 16)
	x := make([]complex64, pad)
	for i, v := range w {
		x[i] = complex(float32(v), 0)
	}
	MustPlan(pad).Forward(x)
	mags := make([]float64, pad)
	for i, v := range x {
		mags[i] = cmplx.Abs(complex128(v))
	}
	peak := mags[0]
	// Find the first null, then the max beyond it (positive freqs only).
	i := 1
	for i < pad/2 && mags[i] <= mags[i-1] {
		i++
	}
	side := 0.0
	for ; i < pad/2; i++ {
		if mags[i] > side {
			side = mags[i]
		}
	}
	return 20 * math.Log10(side/peak)
}

func TestWindowSidelobeLevels(t *testing.T) {
	cases := []struct {
		k        WindowKind
		min, max float64 // expected sidelobe range in dB
	}{
		{Rect, -14, -12.5},   // sinc: -13.26 dB
		{Hann, -33, -30},     // -31.5 dB
		{Hamming, -45, -39},  // -42.7 dB
		{Taylor, -37.5, -33}, // -35 dB design
	}
	for _, c := range cases {
		got := spectrumSidelobe(Window(c.k, 128))
		if got < c.min || got > c.max {
			t.Errorf("%v: sidelobe %v dB outside [%v, %v]", c.k, got, c.min, c.max)
		}
	}
}

func TestApplyWindow(t *testing.T) {
	x := []complex64{1, complex(2, 2), complex(0, -4)}
	ApplyWindow(x, []float64{0.5, 1, 0.25})
	if x[0] != 0.5 || x[1] != complex(2, 2) || x[2] != complex(0, -1) {
		t.Errorf("ApplyWindow = %v", x)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch accepted")
		}
	}()
	ApplyWindow(x, []float64{1})
}

// TestCoherentGain checks the windows' coherent gain, the mean of the
// taper: the amplitude a coherent signal keeps under the window.
func TestCoherentGain(t *testing.T) {
	gain := func(w []float64) float64 {
		var sum float64
		for _, v := range w {
			sum += v
		}
		return sum / float64(len(w))
	}
	if g := gain(Window(Rect, 64)); math.Abs(g-1) > 1e-12 {
		t.Errorf("rect gain %v", g)
	}
	if g := gain(Window(Hann, 4096)); math.Abs(g-0.5) > 0.01 {
		t.Errorf("hann gain %v, want ~0.5", g)
	}
}
