package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"sarmany/internal/cf"
)

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(x []complex64, inverse bool) []complex64 {
	n := len(x)
	out := make([]complex64, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			phi := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			acc += complex128(complex(real(x[j]), imag(x[j]))) * cmplx.Exp(complex(0, phi))
		}
		if inverse {
			acc /= complex(float64(n), 0)
		}
		out[k] = complex(float32(real(acc)), float32(imag(acc)))
	}
	return out
}

func maxErr(a, b []complex64) float64 {
	var m float64
	for i := range a {
		d := cmplx.Abs(complex128(a[i]) - complex128(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func randVec(n int, seed int64) []complex64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex64, n)
	for i := range x {
		x[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return x
}

func TestNewPlanRejectsBadLengths(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) should fail", n)
		}
	}
	for _, n := range []int{1, 2, 4, 1024} {
		if _, err := NewPlan(n); err != nil {
			t.Errorf("NewPlan(%d): %v", n, err)
		}
	}
}

func TestForwardMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randVec(n, int64(n))
		want := naiveDFT(x, false)
		got := append([]complex64(nil), x...)
		MustPlan(n).Forward(got)
		if e := maxErr(got, want); e > 1e-3*float64(n) {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestInverseMatchesNaive(t *testing.T) {
	for _, n := range []int{2, 8, 32, 128} {
		x := randVec(n, int64(n)+100)
		want := naiveDFT(x, true)
		got := append([]complex64(nil), x...)
		MustPlan(n).Inverse(got)
		if e := maxErr(got, want); e > 1e-3*float64(n) {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{1, 4, 64, 1024, 4096} {
		x := randVec(n, int64(n)+7)
		got := append([]complex64(nil), x...)
		p := MustPlan(n)
		p.Forward(got)
		p.Inverse(got)
		if e := maxErr(got, x); e > 1e-4*math.Sqrt(float64(n)) {
			t.Errorf("n=%d: round-trip error %v", n, e)
		}
	}
}

func TestLinearity(t *testing.T) {
	n := 128
	p := MustPlan(n)
	x := randVec(n, 1)
	y := randVec(n, 2)
	// F(x+2y)
	sum := make([]complex64, n)
	for i := range sum {
		sum[i] = x[i] + cf.Scale(2, y[i])
	}
	p.Forward(sum)
	// F(x) + 2F(y)
	fx := append([]complex64(nil), x...)
	fy := append([]complex64(nil), y...)
	p.Forward(fx)
	p.Forward(fy)
	for i := range fx {
		fx[i] += cf.Scale(2, fy[i])
	}
	if e := maxErr(sum, fx); e > 1e-2 {
		t.Errorf("linearity violated: %v", e)
	}
}

func TestParseval(t *testing.T) {
	n := 256
	x := randVec(n, 3)
	var timeE float64
	for _, v := range x {
		timeE += float64(cf.Abs2(v))
	}
	f := append([]complex64(nil), x...)
	MustPlan(n).Forward(f)
	var freqE float64
	for _, v := range f {
		freqE += float64(cf.Abs2(v))
	}
	freqE /= float64(n)
	if math.Abs(timeE-freqE) > 1e-2*timeE {
		t.Errorf("Parseval violated: time %v freq %v", timeE, freqE)
	}
}

func TestImpulseTransform(t *testing.T) {
	n := 64
	x := make([]complex64, n)
	x[0] = 1
	MustPlan(n).Forward(x)
	for i, v := range x {
		if math.Abs(float64(real(v))-1) > 1e-5 || math.Abs(float64(imag(v))) > 1e-5 {
			t.Fatalf("impulse spectrum not flat at %d: %v", i, v)
		}
	}
}

func TestForwardWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustPlan(8).Forward(make([]complex64, 4))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	p := MustPlan(1024)
	x := randVec(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}
