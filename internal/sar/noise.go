package sar

import (
	"math"
	"math/rand"

	"sarmany/internal/cf"
	"sarmany/internal/fft"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
)

// AddNoise adds circular complex white Gaussian noise of standard
// deviation sigma (per complex sample; sigma/sqrt(2) per component) to
// every element of m, in place, using a deterministic generator seeded
// with seed. It returns m for chaining.
//
// Back-projection integrates NumPulses echoes coherently, so a target of
// amplitude A in noise of deviation sigma gains ~10*log10(N) dB of SNR in
// the image — the processing gain that makes SAR work at all, and a
// useful end-to-end validity check of the whole chain.
func AddNoise(m *mat.C, sigma float64, seed int64) *mat.C {
	rng := rand.New(rand.NewSource(seed))
	s := sigma / 1.4142135623730951
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] += complex(float32(rng.NormFloat64()*s), float32(rng.NormFloat64()*s))
		}
	}
	return m
}

// MotionCompensate corrects pulse-compressed data for a known flight-path
// error (e.g. from GPS/INS, the paper's Sec. II-A: "the compensations are
// typically based on positioning information from GPS"): each pulse's
// range profile is resampled by the cross-track displacement and its
// carrier phase restored, referencing the data to the nominal straight
// track. The correction is space-invariant per pulse (exact at broadside,
// approximate at squint) — the standard first-order MOCOMP that makes
// straight-track processors (including the frequency-domain RDA) usable
// again; time-domain back-projection could instead compensate exactly
// per pixel.
func MotionCompensate(m *mat.C, p Params, pathErr PathError) *mat.C {
	if pathErr == nil {
		return m
	}
	out := mat.NewC(m.Rows, m.Cols)
	k := 4 * math.Pi / p.Wavelength
	for i := 0; i < m.Rows; i++ {
		delta := pathErr(p.TrackPos(i)) // displacement toward the scene
		src := m.Row(i)
		dst := out.Row(i)
		rot := cf.Expi(float32(-k * delta))
		for j := range dst {
			// True range of the sample that should sit at bin j is
			// r_j - delta; fetch it and restore the nominal phase.
			v := interp.At1(src, float64(j)-delta/p.DR, interp.Linear)
			dst[j] = v * rot
		}
	}
	return out
}

// RandomScene returns n point targets placed uniformly at random (with
// deterministic seed) inside the given azimuth and range intervals, with
// amplitudes in [0.5, 1]. Useful for workload generation in benches and
// stress tests.
func RandomScene(n int, seed int64, uMin, uMax, yMin, yMax float64) []Target {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Target, n)
	for i := range out {
		out[i] = Target{
			U:   uMin + rng.Float64()*(uMax-uMin),
			Y:   yMin + rng.Float64()*(yMax-yMin),
			Amp: float32(0.5 + 0.5*rng.Float64()),
		}
	}
	return out
}

// CompressWindowed matched-filters each row of raw against an
// amplitude-weighted chirp replica: the taper lowers the compressed
// pulse's range sidelobes (e.g. from -13 dB unweighted to about -35 dB
// with the Taylor window) at the cost of a slightly wider mainlobe and
// the window's coherent gain. Output is normalized like Compress, with
// the window's gain compensated so target peaks keep ~their amplitude.
// It shares Compress's path, which builds one FFT plan and one replica
// spectrum per call and spreads the pulses over GOMAXPROCS workers; the
// output is bit-identical for any worker count.
func CompressWindowed(p Params, ch Chirp, raw *mat.C, kind fft.WindowKind) *mat.C {
	ref := ch.Reference()
	fft.ApplyWindow(ref, fft.Window(kind, len(ref)))
	return compress(p, ref, raw, 0)
}
