// Package sar models the stripmap synthetic-aperture radar front end that
// feeds the back-projection stage the paper evaluates: the platform/scene
// geometry, point-target raw-echo synthesis, the transmitted LFM chirp, and
// pulse compression (matched filtering).
//
// Geometry is the slant-plane model of the paper's Fig. 2: the platform
// flies along the u axis (azimuth) and each transmitted pulse illuminates a
// swath of range bins. A point target at azimuth X, cross-track range Y has
// slant range hypot(X-u, Y) from the platform at track position u. An
// optional flight-path error displaces the platform in the cross-track
// direction, which is what autofocus later has to estimate and compensate.
package sar

import (
	"fmt"
	"math"

	"sarmany/internal/cf"
	"sarmany/internal/fft"
	"sarmany/internal/mat"
)

// Params describes the radar and the collection geometry. The defaults
// (DefaultParams) match the paper's data-set dimensions: 1024 pulses of
// 1001 range bins, processed in ten merge-base-2 FFBP iterations to a
// 1024x1001-pixel image.
type Params struct {
	NumPulses int // pulses in the synthetic aperture (1024)
	NumBins   int // range bins per pulse (1001)

	R0 float64 // slant range of range bin 0 (m)
	DR float64 // range bin spacing (m)

	PulseSpacing float64 // along-track distance between pulses (m)
	Wavelength   float64 // carrier wavelength (m)

	// RangeRes is the -3 dB width of the compressed pulse (m). It sets the
	// mainlobe width of the synthesized point response; RangeRes/DR is the
	// range oversampling factor.
	RangeRes float64

	// EnvelopeHalfWidth is the truncation half-width of the compressed
	// pulse envelope in range bins.
	EnvelopeHalfWidth int
}

// DefaultParams returns the configuration used throughout the reproduction:
// a low-frequency (VHF/UWB, CARABAS-style) system, which is the SAR class
// the paper's FFBP + autofocus chain comes from.
func DefaultParams() Params {
	return Params{
		NumPulses:         1024,
		NumBins:           1001,
		R0:                2000,
		DR:                0.5,
		PulseSpacing:      1.0,
		Wavelength:        8.0,
		RangeRes:          1.0,
		EnvelopeHalfWidth: 6,
	}
}

// Validate reports whether the parameter set is usable.
func (p Params) Validate() error {
	switch {
	case p.NumPulses < 1:
		return fmt.Errorf("sar: NumPulses %d < 1", p.NumPulses)
	case p.NumBins < 1:
		return fmt.Errorf("sar: NumBins %d < 1", p.NumBins)
	case p.DR <= 0:
		return fmt.Errorf("sar: DR %v <= 0", p.DR)
	case p.R0 <= 0:
		return fmt.Errorf("sar: R0 %v <= 0", p.R0)
	case p.PulseSpacing <= 0:
		return fmt.Errorf("sar: PulseSpacing %v <= 0", p.PulseSpacing)
	case p.Wavelength <= 0:
		return fmt.Errorf("sar: Wavelength %v <= 0", p.Wavelength)
	case p.RangeRes < p.DR:
		return fmt.Errorf("sar: RangeRes %v < DR %v (undersampled)", p.RangeRes, p.DR)
	case p.EnvelopeHalfWidth < 1:
		return fmt.Errorf("sar: EnvelopeHalfWidth %d < 1", p.EnvelopeHalfWidth)
	}
	return nil
}

// ApertureLength returns the total synthetic aperture length (m).
func (p Params) ApertureLength() float64 {
	return float64(p.NumPulses) * p.PulseSpacing
}

// TrackPos returns the along-track position of pulse i. The aperture is
// centred on u = 0, with pulse i at the centre of its subaperture cell,
// matching geom.Stage0.
func (p Params) TrackPos(i int) float64 {
	return -p.ApertureLength()/2 + (float64(i)+0.5)*p.PulseSpacing
}

// CenterRange returns the slant range of the middle of the swath.
func (p Params) CenterRange() float64 {
	return p.R0 + float64(p.NumBins-1)*p.DR/2
}

// Target is a point scatterer at azimuth U (m, along-track, same axis as
// TrackPos) and cross-track slant range Y (m), with reflection amplitude
// Amp.
type Target struct {
	U, Y float64
	Amp  float32
}

// SixTargetScene returns the validation scene of the paper (Sec. V-B "a
// test scenario of six target points"): six point targets spread over the
// imaged area.
func SixTargetScene(p Params) []Target {
	rc := p.CenterRange()
	dr := float64(p.NumBins-1) * p.DR
	return []Target{
		{U: -120, Y: rc - 0.30*dr, Amp: 1},
		{U: 0, Y: rc - 0.30*dr, Amp: 1},
		{U: 120, Y: rc - 0.30*dr, Amp: 1},
		{U: -120, Y: rc + 0.25*dr, Amp: 1},
		{U: 0, Y: rc + 0.25*dr, Amp: 1},
		{U: 120, Y: rc + 0.25*dr, Amp: 1},
	}
}

// PathError gives the cross-track displacement of the platform (m) as a
// function of along-track position u; nil means a perfectly linear track.
type PathError func(u float64) float64

// Range returns the slant range from the platform at track position u
// (displaced cross-track by pathErr) to target t.
func Range(u float64, pathErr PathError, t Target) float64 {
	y := t.Y
	if pathErr != nil {
		y -= pathErr(u)
	}
	return math.Hypot(t.U-u, y)
}

// envelope returns the compressed-pulse envelope at a distance d (m) from
// the peak: a Hann-windowed sinc with -3 dB width RangeRes, truncated at
// EnvelopeHalfWidth bins.
func (p Params) envelope(d float64) float64 {
	w := float64(p.EnvelopeHalfWidth) * p.DR
	if d < -w || d > w {
		return 0
	}
	// sinc mainlobe scaled so the first null falls at ~RangeRes.
	x := d / p.RangeRes
	s := 1.0
	if x != 0 {
		s = math.Sin(math.Pi*x) / (math.Pi * x)
	}
	// Hann taper over the truncation window.
	h := 0.5 * (1 + math.Cos(math.Pi*d/w))
	return s * h
}

// Simulate synthesizes pulse-compressed radar data for the given targets:
// row i is the compressed range profile received at pulse i. Each target
// contributes its envelope centred on the exact slant range, carrying the
// two-way carrier phase exp(-i*4*pi*R/lambda). This is the direct synthesis
// path; SimulateRaw + Compress produce the same data through an explicit
// chirp + matched-filter front end. The pulses are spread over GOMAXPROCS
// workers; the output is bit-identical for any worker count.
func Simulate(p Params, targets []Target, pathErr PathError) *mat.C {
	return simulate(p, targets, pathErr, 0)
}

// simulate is Simulate on workers goroutines (<= 0 means GOMAXPROCS).
func simulate(p Params, targets []Target, pathErr PathError, workers int) *mat.C {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	data := mat.NewC(p.NumPulses, p.NumBins)
	parallelRows(p.NumPulses, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			simulatePulse(data, p, i, targets, pathErr)
		}
	})
	return data
}

// simulatePulse synthesizes the compressed range profile of pulse i into
// its row of data. Rows are independent, so workers share nothing.
func simulatePulse(data *mat.C, p Params, i int, targets []Target, pathErr PathError) {
	k := 4 * math.Pi / p.Wavelength
	u := p.TrackPos(i)
	row := data.Row(i)
	for _, t := range targets {
		r := Range(u, pathErr, t)
		phase := cf.Scale(t.Amp, cf.Expi(float32(-k*r)))
		c0 := int(math.Ceil((r - float64(p.EnvelopeHalfWidth)*p.DR - p.R0) / p.DR))
		c1 := int(math.Floor((r + float64(p.EnvelopeHalfWidth)*p.DR - p.R0) / p.DR))
		if c0 < 0 {
			c0 = 0
		}
		if c1 > p.NumBins-1 {
			c1 = p.NumBins - 1
		}
		for c := c0; c <= c1; c++ {
			d := p.R0 + float64(c)*p.DR - r
			e := float32(p.envelope(d))
			if e == 0 {
				continue
			}
			row[c] += cf.Scale(e, phase)
		}
	}
}

// Chirp describes the transmitted linear-FM pulse for the explicit
// front-end path.
type Chirp struct {
	// Samples is the pulse length in range samples (at the range-bin rate,
	// i.e. one sample per DR of two-way range).
	Samples int
	// Bandwidth is expressed as the resulting compressed resolution in
	// range bins: the chirp sweeps so that the matched filter output has a
	// mainlobe of about ResBins bins.
	ResBins float64
}

// DefaultChirp returns a chirp whose compressed resolution matches
// p.RangeRes.
func (p Params) DefaultChirp() Chirp {
	return Chirp{Samples: 128, ResBins: p.RangeRes / p.DR}
}

// Reference returns the complex baseband chirp replica.
func (c Chirp) Reference() []complex64 {
	ref := make([]complex64, c.Samples)
	n := float64(c.Samples)
	// LFM: phase(t) = pi * K * t^2 with K chosen so the swept bandwidth is
	// (sample rate)/ResBins over the pulse, giving ~ResBins compressed
	// width.
	kr := 1 / (c.ResBins * n)
	for i := range ref {
		t := float64(i) - n/2
		phi := math.Pi * kr * t * t
		ref[i] = cf.Expi(float32(phi))
	}
	return ref
}

// SimulateRaw synthesizes uncompressed echo data: each target contributes a
// delayed copy of the chirp with the two-way carrier phase. Row i has
// NumBins + Chirp.Samples - 1 samples so that compression with Compress
// yields exactly NumBins bins; sample j of the raw row corresponds to a
// two-way range of R0 + (j - Samples/2)*DR at the chirp centre. Like
// Simulate, it spreads the pulses over GOMAXPROCS workers.
func SimulateRaw(p Params, ch Chirp, targets []Target, pathErr PathError) *mat.C {
	return simulateRaw(p, ch, targets, pathErr, 0)
}

// simulateRaw is SimulateRaw on workers goroutines (<= 0 means
// GOMAXPROCS).
func simulateRaw(p Params, ch Chirp, targets []Target, pathErr PathError, workers int) *mat.C {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	ref := ch.Reference()
	raw := mat.NewC(p.NumPulses, p.NumBins+ch.Samples-1)
	parallelRows(p.NumPulses, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			simulateRawPulse(raw, p, ref, i, targets, pathErr)
		}
	})
	return raw
}

// simulateRawPulse synthesizes the raw chirp echoes of pulse i into its
// row of raw. Rows are independent, so workers share nothing.
func simulateRawPulse(raw *mat.C, p Params, ref []complex64, i int, targets []Target, pathErr PathError) {
	k := 4 * math.Pi / p.Wavelength
	u := p.TrackPos(i)
	row := raw.Row(i)
	for _, t := range targets {
		r := Range(u, pathErr, t)
		// The chirp centre lands at fractional bin position of range r.
		pos := (r - p.R0) / p.DR
		start := int(math.Round(pos)) // start sample of the echo copy
		phase := cf.Scale(t.Amp, cf.Expi(float32(-k*r)))
		for j, rv := range ref {
			idx := start + j
			if idx < 0 || idx >= len(row) {
				continue
			}
			row[idx] += phase * rv
		}
	}
}

// Compress matched-filters each row of raw against the chirp replica,
// returning NumPulses x NumBins pulse-compressed data normalized by the
// pulse energy so target peaks have approximately their Amp magnitude.
// It builds one FFT plan and one replica spectrum per call and spreads
// the pulses over GOMAXPROCS workers; the output is bit-identical for any
// worker count.
func Compress(p Params, ch Chirp, raw *mat.C) *mat.C {
	return compress(p, ch.Reference(), raw, 0)
}

// compress is the fast-convolution matched filter behind Compress and
// CompressWindowed, on workers goroutines (<= 0 means GOMAXPROCS). The
// plan and the spectrum of the conjugated, reversed replica are built
// once; each worker reuses one plan-length buffer. Per row it runs a
// forward FFT of the zero-padded row, the product with the replica
// spectrum, an inverse FFT and the 1/energy scale: the arithmetic of a
// fresh per-row correlation, so the result does not depend on workers.
func compress(p Params, ref []complex64, raw *mat.C, workers int) *mat.C {
	if len(ref) == 0 || raw.Cols != p.NumBins+len(ref)-1 {
		panic(fmt.Sprintf("sar: raw width %d does not match %d bins and a %d-sample chirp", raw.Cols, p.NumBins, len(ref)))
	}
	var energy float32
	for _, v := range ref {
		energy += cf.Abs2(v)
	}
	inv := 1 / energy
	plan := fft.MustPlan(fft.NextPow2(raw.Cols + len(ref) - 1))
	spec := make([]complex64, plan.N())
	for i, v := range ref {
		spec[len(ref)-1-i] = cf.Conj(v)
	}
	plan.Forward(spec)
	out := mat.NewC(raw.Rows, p.NumBins)
	parallelRows(raw.Rows, workers, func(lo, hi int) {
		buf := make([]complex64, plan.N())
		for i := lo; i < hi; i++ {
			clear(buf[copy(buf, raw.Row(i)):])
			plan.Forward(buf)
			for j := range buf {
				buf[j] *= spec[j]
			}
			plan.Inverse(buf)
			dst := out.Row(i)
			for j := range dst {
				dst[j] = cf.Scale(inv, buf[len(ref)-1+j])
			}
		}
	})
	return out
}
