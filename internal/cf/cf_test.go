package cf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAbs2(t *testing.T) {
	cases := []struct {
		z    complex64
		want float32
	}{
		{0, 0},
		{complex(3, 4), 25},
		{complex(-3, 4), 25},
		{complex(0, -2), 4},
		{complex(1, 0), 1},
	}
	for _, c := range cases {
		if got := Abs2(c.z); got != c.want {
			t.Errorf("Abs2(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestAbsMatchesAbs2(t *testing.T) {
	err := quick.Check(func(re, im float32) bool {
		if math.IsNaN(float64(re)) || math.IsNaN(float64(im)) {
			return true
		}
		// Keep magnitudes sane to avoid float32 overflow in Abs2.
		re = float32(math.Mod(float64(re), 1e6))
		im = float32(math.Mod(float64(im), 1e6))
		z := complex(re, im)
		a := float64(Abs(z))
		b := math.Sqrt(float64(Abs2(z)))
		return math.Abs(a-b) <= 1e-3*(1+a)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMulAdd(t *testing.T) {
	a := complex64(complex(1, 2))
	b := complex64(complex(3, -1))
	c := complex64(complex(-2, 4))
	want := a + b*c
	got := MulAdd(a, b, c)
	if got != want {
		t.Errorf("MulAdd = %v, want %v", got, want)
	}
}

func TestMulAddProperty(t *testing.T) {
	err := quick.Check(func(ar, ai, br, bi, cr, ci float32) bool {
		trim := func(x float32) float32 { return float32(math.Mod(float64(x), 1e4)) }
		a := complex(trim(ar), trim(ai))
		b := complex(trim(br), trim(bi))
		c := complex(trim(cr), trim(ci))
		got := MulAdd(a, b, c)
		want := a + b*c
		return math.Abs(float64(real(got)-real(want))) < 1e-1 &&
			math.Abs(float64(imag(got)-imag(want))) < 1e-1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestScaleConj(t *testing.T) {
	z := complex64(complex(2, -3))
	if got := Scale(2, z); got != complex(4, -6) {
		t.Errorf("Scale = %v", got)
	}
	if got := Conj(z); got != complex(2, 3) {
		t.Errorf("Conj = %v", got)
	}
}

func TestExpi(t *testing.T) {
	cases := []struct {
		phi  float32
		want complex64
	}{
		{0, 1},
		{float32(math.Pi / 2), complex(0, 1)},
		{float32(math.Pi), complex(-1, 0)},
	}
	for _, c := range cases {
		got := Expi(c.phi)
		if math.Abs(float64(real(got)-real(c.want))) > 1e-6 ||
			math.Abs(float64(imag(got)-imag(c.want))) > 1e-6 {
			t.Errorf("Expi(%v) = %v, want %v", c.phi, got, c.want)
		}
	}
}

func TestExpiUnitModulus(t *testing.T) {
	err := quick.Check(func(phi float32) bool {
		if math.IsNaN(float64(phi)) || math.IsInf(float64(phi), 0) {
			return true
		}
		phi = float32(math.Mod(float64(phi), 2*math.Pi))
		m := Abs2(Expi(phi))
		return math.Abs(float64(m)-1) < 1e-5
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkMulAdd(b *testing.B) {
	var acc complex64
	x := complex64(complex(1.000001, -0.999999))
	y := complex64(complex(0.5, 0.25))
	for i := 0; i < b.N; i++ {
		acc = MulAdd(acc, x, y)
	}
	_ = acc
}
