package interp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sarmany/internal/mat"
)

func TestKindString(t *testing.T) {
	if Nearest.String() != "nearest" || Linear.String() != "linear" ||
		Cubic.String() != "cubic" || Sinc8.String() != "sinc8" {
		t.Error("Kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind name")
	}
}

func TestTaps(t *testing.T) {
	if Nearest.Taps() != 1 || Linear.Taps() != 2 || Cubic.Taps() != 4 || Sinc8.Taps() != 8 {
		t.Error("tap counts wrong")
	}
}

func TestSinc8ExactOnSamplesAndBandlimited(t *testing.T) {
	// Exact at integer positions: the sinc kernel has zeros at all other
	// integer offsets.
	v := []complex64{1, complex(2, 1), complex(-1, 3), 4, complex(0, -2), 2, 1, complex(3, 3), 0, 1}
	for i := range v {
		got := At1(v, float64(i), Sinc8)
		if cAbs(got-v[i]) > 1e-5 {
			t.Errorf("sinc8 at sample %d: %v want %v", i, got, v[i])
		}
	}
	// Sinc8's advantage over cubic shows on fast band-limited content (a
	// sinusoid at 0.3 cycles/sample, near Nyquist) — the regime where the
	// polynomial kernel's passband rolls off.
	n := 64
	s := make([]complex64, n)
	f := 0.3
	for i := range s {
		s[i] = complex(float32(math.Cos(2*math.Pi*f*float64(i))), float32(math.Sin(2*math.Pi*f*float64(i))))
	}
	var worstSinc, worstCubic float64
	for x := 10.0; x <= 50; x += 0.173 {
		want := complex(float32(math.Cos(2*math.Pi*f*x)), float32(math.Sin(2*math.Pi*f*x)))
		if e := cAbs(At1(s, x, Sinc8) - want); e > worstSinc {
			worstSinc = e
		}
		if e := cAbs(At1(s, x, Cubic) - want); e > worstCubic {
			worstCubic = e
		}
	}
	if worstSinc > 0.05 {
		t.Errorf("sinc8 worst error %v on near-Nyquist input", worstSinc)
	}
	if worstSinc >= 0.5*worstCubic {
		t.Errorf("sinc8 (%v) not clearly better than cubic (%v) near Nyquist", worstSinc, worstCubic)
	}
}

func TestSinc8At2(t *testing.T) {
	img := mat.NewC(12, 12)
	for r := 0; r < 12; r++ {
		for c := 0; c < 12; c++ {
			img.Set(r, c, complex(float32(r), float32(c)))
		}
	}
	// Exact on samples.
	if got := At2(img, 5, 7, Sinc8); cAbs(got-complex(5, 7)) > 1e-4 {
		t.Errorf("sinc8 on-sample At2 = %v", got)
	}
	// Out of range -> 0.
	if got := At2(img, -30, 5, Sinc8); got != 0 {
		t.Errorf("sinc8 out of range = %v", got)
	}
}

func TestAt1ExactOnSamples(t *testing.T) {
	v := []complex64{1, complex(2, 1), complex(-1, 3), 4, complex(0, -2)}
	for _, k := range []Kind{Nearest, Linear, Cubic} {
		for i := range v {
			got := At1(v, float64(i), k)
			if cAbs(got-v[i]) > 1e-5 {
				t.Errorf("%v at sample %d: got %v want %v", k, i, got, v[i])
			}
		}
	}
}

func TestNearestRounding(t *testing.T) {
	v := []complex64{10, 20, 30}
	cases := []struct {
		x    float64
		want complex64
	}{
		{0.4, 10}, {0.6, 20}, {1.49, 20}, {1.51, 30},
		{-0.4, 10}, {-0.6, 0}, {2.4, 30}, {2.6, 0},
	}
	for _, c := range cases {
		if got := At1(v, c.x, Nearest); got != c.want {
			t.Errorf("Nearest(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLinearMidpoints(t *testing.T) {
	v := []complex64{0, complex(2, -4)}
	got := At1(v, 0.5, Linear)
	if cAbs(got-complex(1, -2)) > 1e-6 {
		t.Errorf("Linear midpoint = %v", got)
	}
}

func TestCubicReproducesCubicPolynomial(t *testing.T) {
	// A cubic kernel must reproduce any degree-<=3 polynomial exactly
	// (within float32 rounding) wherever all four taps are in range.
	poly := func(x float64) complex64 {
		re := 1 + 2*x - 0.5*x*x + 0.125*x*x*x
		im := -2 + x*x
		return complex(float32(re), float32(im))
	}
	v := make([]complex64, 8)
	for i := range v {
		v[i] = poly(float64(i))
	}
	for x := 1.0; x <= 6.0; x += 0.1 {
		got := At1(v, x, Cubic)
		want := poly(x)
		if cAbs(got-want) > 1e-3 {
			t.Errorf("Cubic at %v: got %v want %v", x, got, want)
		}
	}
}

func TestNeville4MatchesLagrange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 1000; trial++ {
		var s [4]complex64
		for i := range s {
			s[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
		tt := float32(rng.Float64()*5 - 1)
		got := Neville4(s, tt)
		want := lagrange4(s, float64(tt))
		if cAbs(got-want) > 1e-3*(1+cAbs(want)) {
			t.Fatalf("Neville4(%v, %v) = %v, want %v", s, tt, got, want)
		}
	}
}

func lagrange4(s [4]complex64, x float64) complex64 {
	var accR, accI float64
	for j := 0; j < 4; j++ {
		w := 1.0
		for m := 0; m < 4; m++ {
			if m != j {
				w *= (x - float64(m)) / (float64(j) - float64(m))
			}
		}
		accR += w * float64(real(s[j]))
		accI += w * float64(imag(s[j]))
	}
	return complex(float32(accR), float32(accI))
}

func TestOutOfRangeIsZero(t *testing.T) {
	v := []complex64{1, 2, 3}
	for _, k := range []Kind{Nearest, Linear, Cubic} {
		if got := At1(v, -10, k); got != 0 {
			t.Errorf("%v far left = %v", k, got)
		}
		if got := At1(v, 50, k); got != 0 {
			t.Errorf("%v far right = %v", k, got)
		}
	}
	if got := At1(nil, 0, Nearest); got != 0 {
		t.Errorf("empty input = %v", got)
	}
}

func TestAt2SeparableAgainstManual(t *testing.T) {
	img := mat.NewC(5, 5)
	rng := rand.New(rand.NewSource(9))
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			img.Set(r, c, complex(float32(rng.NormFloat64()), float32(rng.NormFloat64())))
		}
	}
	// On-sample positions are exact for all kernels.
	for _, k := range []Kind{Nearest, Linear, Cubic} {
		got := At2(img, 2, 3, k)
		if cAbs(got-img.At(2, 3)) > 1e-5 {
			t.Errorf("%v on-sample: %v want %v", k, got, img.At(2, 3))
		}
	}
	// Bilinear midpoint equals the 4-sample average.
	got := At2(img, 1.5, 2.5, Linear)
	want := (img.At(1, 2) + img.At(1, 3) + img.At(2, 2) + img.At(2, 3)) / 4
	if cAbs(got-want) > 1e-5 {
		t.Errorf("bilinear midpoint %v want %v", got, want)
	}
}

func TestAt2BicubicReproducesBilinearField(t *testing.T) {
	// A bicubic kernel reproduces any field that is a polynomial of degree
	// <=3 in each variable; test with f(r,c) = r*c + 2r - c.
	img := mat.NewC(8, 8)
	f := func(r, c float64) complex64 {
		return complex(float32(r*c+2*r-c), float32(r-c*c))
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			img.Set(r, c, f(float64(r), float64(c)))
		}
	}
	for r := 1.0; r <= 6; r += 0.37 {
		for c := 1.0; c <= 6; c += 0.41 {
			got := At2(img, r, c, Cubic)
			want := f(r, c)
			if cAbs(got-want) > 1e-3 {
				t.Fatalf("bicubic at (%v,%v): %v want %v", r, c, got, want)
			}
		}
	}
}

func TestAt2OutOfRange(t *testing.T) {
	img := mat.NewC(3, 3)
	img.Fill(1)
	for _, k := range []Kind{Nearest, Linear, Cubic} {
		if got := At2(img, -20, 1, k); got != 0 {
			t.Errorf("%v out of range rows = %v", k, got)
		}
		if got := At2(img, 1, 99, k); got != 0 {
			t.Errorf("%v out of range cols = %v", k, got)
		}
	}
}

func TestLinearBetweenNeighborsProperty(t *testing.T) {
	// Linear interpolation of real data stays within the min/max of its two
	// neighbouring samples.
	f := func(a, b float32, frac float32) bool {
		if a != a || b != b {
			return true
		}
		// Keep magnitudes within range so b-a cannot overflow float32.
		a = float32(math.Mod(float64(a), 1e6))
		b = float32(math.Mod(float64(b), 1e6))
		frac = float32(math.Abs(float64(frac)))
		frac -= float32(math.Floor(float64(frac)))
		v := []complex64{complex(a, 0), complex(b, 0)}
		got := real(At1(v, float64(frac), Linear))
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return got >= lo-1e-3*(1+float32(math.Abs(float64(lo)))) &&
			got <= hi+1e-3*(1+float32(math.Abs(float64(hi))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func cAbs(z complex64) float64 {
	return math.Hypot(float64(real(z)), float64(imag(z)))
}

func BenchmarkAt1Cubic(b *testing.B) {
	v := make([]complex64, 1001)
	for i := range v {
		v[i] = complex(float32(i), float32(-i))
	}
	var acc complex64
	for i := 0; i < b.N; i++ {
		acc += At1(v, float64(i%990)+0.37, Cubic)
	}
	_ = acc
}
