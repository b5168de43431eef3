package sar

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"sarmany/internal/cf"
	"sarmany/internal/fft"
	"sarmany/internal/mat"
)

// correlateRef is the per-row matched filter that compress is pinned
// against: out[k] = sum_j x[j+k] * conj(ref[j]) for k in
// [0, len(x)-len(ref)], by fast convolution of x with the conjugated,
// reversed replica. It builds a fresh plan and transforms the replica
// again on every call, so no state is shared between rows.
func correlateRef(x, ref []complex64) []complex64 {
	n := fft.NextPow2(len(x) + len(ref) - 1)
	p := fft.MustPlan(n)
	fa := make([]complex64, n)
	fb := make([]complex64, n)
	copy(fa, x)
	for i, v := range ref {
		fb[len(ref)-1-i] = cf.Conj(v)
	}
	p.Forward(fa)
	p.Forward(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p.Inverse(fa)
	return fa[len(ref)-1 : len(x)]
}

// compressRef is the per-row oracle for compress: correlateRef on every
// row, scaled by the inverse replica energy.
func compressRef(p Params, ref []complex64, raw *mat.C) *mat.C {
	var energy float32
	for _, v := range ref {
		energy += cf.Abs2(v)
	}
	inv := 1 / energy
	out := mat.NewC(raw.Rows, p.NumBins)
	for i := 0; i < raw.Rows; i++ {
		comp := correlateRef(raw.Row(i), ref)
		dst := out.Row(i)
		for j := range dst {
			dst[j] = cf.Scale(inv, comp[j])
		}
	}
	return out
}

func randVec(n int, seed int64) []complex64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex64, n)
	for i := range x {
		x[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return x
}

// sameBits fails t unless got and want hold the same float32 bit
// patterns. mat.C.Equal would accept -0 for +0.
func sameBits(t *testing.T, name string, got, want *mat.C) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j, v := range got.Row(i) {
			w := want.At(i, j)
			if math.Float32bits(real(v)) != math.Float32bits(real(w)) || math.Float32bits(imag(v)) != math.Float32bits(imag(w)) {
				t.Errorf("%s: (%d,%d) = %v, want %v", name, i, j, v, w)
				return
			}
		}
	}
}

// TestCorrelateRefMatchesNaive checks the oracle against the direct
// O(n·m) correlation sum.
func TestCorrelateRefMatchesNaive(t *testing.T) {
	for _, c := range []struct{ nx, nref int }{{1, 1}, {4, 3}, {17, 5}, {100, 33}} {
		x := randVec(c.nx, int64(c.nx))
		ref := randVec(c.nref, int64(c.nref)+50)
		got := correlateRef(x, ref)
		if len(got) != c.nx-c.nref+1 {
			t.Fatalf("nx=%d nref=%d: length %d", c.nx, c.nref, len(got))
		}
		for k, v := range got {
			var want complex128
			for j, r := range ref {
				want += complex128(x[j+k]) * cmplx.Conj(complex128(r))
			}
			if e := cmplx.Abs(complex128(v) - want); e > 1e-3 {
				t.Errorf("nx=%d nref=%d lag %d: error %v", c.nx, c.nref, k, e)
			}
		}
	}
}

func TestCorrelateRefPeakAtLag(t *testing.T) {
	// Embed a reference chirp at offset 20 in noise-free zeros; the matched
	// filter must peak exactly at lag 20.
	ref := randVec(16, 9)
	x := make([]complex64, 100)
	copy(x[20:], ref)
	out := correlateRef(x, ref)
	if len(out) != len(x)-len(ref)+1 {
		t.Fatalf("output length %d", len(out))
	}
	best, bestV := -1, float32(-1)
	for i, v := range out {
		if m := cf.Abs2(v); m > bestV {
			best, bestV = i, m
		}
	}
	if best != 20 {
		t.Errorf("peak at lag %d, want 20", best)
	}
}

// TestCompressMatchesPerRowOracle pins Compress and CompressWindowed bit
// for bit to the per-row oracle, for every window and on 1, 2 and 7
// workers at a small odd shape, and Compress once at paper scale.
func TestCompressMatchesPerRowOracle(t *testing.T) {
	p := DefaultParams()
	p.NumPulses, p.NumBins = 9, 101
	ch := p.DefaultChirp()
	raw := AddNoise(SimulateRaw(p, ch, SixTargetScene(p), nil), 0.5, 1)
	check := func(name string, ref []complex64, got *mat.C) {
		want := compressRef(p, ref, raw)
		sameBits(t, name, got, want)
		for _, workers := range []int{1, 2, 7} {
			sameBits(t, fmt.Sprintf("%s on %d workers", name, workers), compress(p, ref, raw, workers), want)
		}
	}
	plain := Compress(p, ch, raw)
	check("Compress", ch.Reference(), plain)
	for _, kind := range []fft.WindowKind{fft.Rect, fft.Hann, fft.Hamming, fft.Taylor} {
		ref := ch.Reference()
		fft.ApplyWindow(ref, fft.Window(kind, len(ref)))
		check("CompressWindowed "+kind.String(), ref, CompressWindowed(p, ch, raw, kind))
	}
	sameBits(t, "CompressWindowed rect against Compress", CompressWindowed(p, ch, raw, fft.Rect), plain)

	p = DefaultParams()
	ch = p.DefaultChirp()
	raw = AddNoise(SimulateRaw(p, ch, SixTargetScene(p), nil), 0.5, 2)
	sameBits(t, "Compress at paper scale", Compress(p, ch, raw), compressRef(p, ch.Reference(), raw))
}

// TestCompressRejectsEmptyChirp checks that an empty replica panics on
// the caller's goroutine, before any worker starts.
func TestCompressRejectsEmptyChirp(t *testing.T) {
	p := DefaultParams()
	p.NumPulses, p.NumBins = 9, 101
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Compress(p, Chirp{}, mat.NewC(p.NumPulses, p.NumBins-1))
}

// TestCompressAllocs checks that compression allocates per call, not per
// pulse. AllocsPerRun runs at GOMAXPROCS 1, so workers 0 (Compress's own
// call) compresses on the caller's goroutine; 4 workers cover the
// fan-out's per-worker scratch.
func TestCompressAllocs(t *testing.T) {
	for _, workers := range []int{0, 4} {
		allocs := func(pulses int) float64 {
			p := DefaultParams()
			p.NumPulses, p.NumBins = pulses, 101
			ch := p.DefaultChirp()
			raw := SimulateRaw(p, ch, nil, nil)
			return testing.AllocsPerRun(2, func() { compress(p, ch.Reference(), raw, workers) })
		}
		if small, large := allocs(16), allocs(1024); large > small {
			t.Errorf("%d workers: %v allocations at 1024 pulses, %v at 16", workers, large, small)
		}
	}
}

var compressSink *mat.C

func BenchmarkCompress(b *testing.B) {
	p := DefaultParams()
	ch := p.DefaultChirp()
	raw := AddNoise(SimulateRaw(p, ch, SixTargetScene(p), nil), 0.5, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compressSink = Compress(p, ch, raw)
	}
}
