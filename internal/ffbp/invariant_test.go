package ffbp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/quality"
	"sarmany/internal/sar"
)

// TestImageShiftCovariance pins the merge geometry without a retained
// reference: a point target on the centre of a beam and a range bin of
// the final grid, moved radially by k = 1..4 range bins, moves the
// Nearest image's peak by k range bins and leaves its beam unchanged.
func TestImageShiftCovariance(t *testing.T) {
	p, box := smallParams()
	cfg := Config{Interp: interp.Nearest}
	_, g, err := Image(mat.NewC(p.NumPulses, p.NumBins), p, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bi = 40
	bt := g.NTheta / 2
	th := g.Theta(bt)
	for k := 0; k <= 4; k++ {
		r := g.Range(bi + k)
		tg := sar.Target{U: r * math.Cos(th), Y: r * math.Sin(th), Amp: 1}
		img, _, err := Image(sar.Simulate(p, []sar.Target{tg}, nil), p, box, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if beam, bin, _ := quality.Peak(quality.Mag(img)); beam != bt || bin != bi+k {
			t.Errorf("target moved %d bins: peak at (%d, %d), want (%d, %d)", k, beam, bin, bt, bi+k)
		}
	}
}

// TestImageLinearity checks Image(a*d1 + b*d2) = a*Image(d1) + b*Image(d2)
// on seeded random data, within a bound derived from float32 rounding.
// A Nearest image pixel sums, over a tree of M merges, at most 2^M
// stage-0 samples d*w, one per pulse, with |w| = 1 to within a rounding
// (the carrier row). With unit roundoff u = 2^-24 and S the sum of
// |a*d1| + |b*d2| over those samples, the pixel's error against exact
// arithmetic is at most about u*S*(2*sqrt(5) + 2*sqrt(2)*M + 2*sqrt(2)):
// sqrt(5)*u per complex product on each side, sqrt(2)*M*u for the M tree
// additions on each side, and sqrt(2)*2u for forming a*d1 + b*d2. The
// test allows 3*(M + 3)*u*S, with S at most 2^M*(|a|*max|d1| +
// |b|*max|d2|).
func TestImageLinearity(t *testing.T) {
	p, box := smallParams()
	rng := rand.New(rand.NewSource(31))
	random := func() *mat.C {
		d := mat.NewC(p.NumPulses, p.NumBins)
		for i := 0; i < d.Rows; i++ {
			for c := range d.Row(i) {
				d.Set(i, c, complex(float32(2*rng.Float64()-1), float32(2*rng.Float64()-1)))
			}
		}
		return d
	}
	d1, d2 := random(), random()
	const a, b = 0.75, -1.25
	sum := mat.NewC(p.NumPulses, p.NumBins)
	for i := 0; i < sum.Rows; i++ {
		for c, v1 := range d1.Row(i) {
			v2 := d2.Row(i)[c]
			sum.Set(i, c, complex(a*real(v1)+b*real(v2), a*imag(v1)+b*imag(v2)))
		}
	}
	cfg := Config{Interp: interp.Nearest}
	img, _, err := Image(sum, p, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	img1, _, err := Image(d1, p, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	img2, _, err := Image(d2, p, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := bits.Len(uint(p.NumPulses)) - 1
	s := float64(p.NumPulses) * (math.Abs(a)*maxAbs(d1) + math.Abs(b)*maxAbs(d2))
	bound := 3 * float64(m+3) * 0x1p-24 * s
	var worst, peak float64
	for r := 0; r < img.Rows; r++ {
		for c, v := range img.Row(r) {
			want := a*complex128(img1.Row(r)[c]) + b*complex128(img2.Row(r)[c])
			worst = max(worst, cmplx.Abs(complex128(v)-want))
			peak = max(peak, cmplx.Abs(want))
		}
	}
	if peak == 0 {
		t.Fatal("the combined image is zero: nothing reached the merges")
	}
	if worst > bound {
		t.Errorf("Image(a*d1 + b*d2) differs from a*Image(d1) + b*Image(d2) by %g, bound %g", worst, bound)
	}
}

// maxAbs returns the largest modulus in d.
func maxAbs(d *mat.C) float64 {
	var m float64
	for i := 0; i < d.Rows; i++ {
		for _, v := range d.Row(i) {
			m = max(m, cmplx.Abs(complex128(v)))
		}
	}
	return m
}
