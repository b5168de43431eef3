package sar

import (
	"fmt"
	"math"
	"testing"

	"sarmany/internal/cf"
)

func smallParams() Params {
	p := DefaultParams()
	p.NumPulses = 64
	p.NumBins = 201
	p.R0 = 500
	return p
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mods := []func(*Params){
		func(p *Params) { p.NumPulses = 0 },
		func(p *Params) { p.NumBins = -1 },
		func(p *Params) { p.DR = 0 },
		func(p *Params) { p.R0 = -5 },
		func(p *Params) { p.PulseSpacing = 0 },
		func(p *Params) { p.Wavelength = -1 },
		func(p *Params) { p.RangeRes = 0.1 },
		func(p *Params) { p.EnvelopeHalfWidth = 0 },
	}
	for i, m := range mods {
		p := DefaultParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTrackPosCentred(t *testing.T) {
	p := DefaultParams()
	first := p.TrackPos(0)
	last := p.TrackPos(p.NumPulses - 1)
	if math.Abs(first+last) > 1e-9 {
		t.Errorf("track not centred: %v %v", first, last)
	}
	if math.Abs((last-first)-(p.ApertureLength()-p.PulseSpacing)) > 1e-9 {
		t.Errorf("aperture span wrong: %v", last-first)
	}
	// Consecutive pulses are PulseSpacing apart.
	if d := p.TrackPos(1) - p.TrackPos(0); math.Abs(d-p.PulseSpacing) > 1e-12 {
		t.Errorf("pulse spacing %v", d)
	}
}

func TestRangeGeometry(t *testing.T) {
	tg := Target{U: 30, Y: 400, Amp: 1}
	if r := Range(30, nil, tg); math.Abs(r-400) > 1e-12 {
		t.Errorf("range at closest approach %v", r)
	}
	if r := Range(0, nil, tg); math.Abs(r-math.Hypot(30, 400)) > 1e-12 {
		t.Errorf("offset range %v", r)
	}
	// A cross-track path error towards the target shortens the range.
	pe := func(u float64) float64 { return 1.0 }
	if r := Range(30, pe, tg); math.Abs(r-399) > 1e-12 {
		t.Errorf("range with path error %v", r)
	}
}

func TestEnvelopeShape(t *testing.T) {
	p := DefaultParams()
	if e := p.envelope(0); math.Abs(e-1) > 1e-12 {
		t.Errorf("envelope peak %v", e)
	}
	w := float64(p.EnvelopeHalfWidth) * p.DR
	if e := p.envelope(w + 0.01); e != 0 {
		t.Errorf("envelope beyond support: %v", e)
	}
	if e := p.envelope(-w - 0.01); e != 0 {
		t.Errorf("envelope beyond support: %v", e)
	}
	// Symmetric.
	if a, b := p.envelope(0.7), p.envelope(-0.7); math.Abs(a-b) > 1e-12 {
		t.Errorf("envelope asymmetric: %v %v", a, b)
	}
	// Decays away from the peak.
	if p.envelope(0) <= p.envelope(p.RangeRes/2) {
		t.Error("envelope does not decay")
	}
}

func TestSimulatePeakAtTargetRange(t *testing.T) {
	p := smallParams()
	tg := Target{U: 0, Y: p.CenterRange(), Amp: 1}
	data := Simulate(p, []Target{tg}, nil)
	if data.Rows != p.NumPulses || data.Cols != p.NumBins {
		t.Fatalf("data dims %dx%d", data.Rows, data.Cols)
	}
	// For every pulse the strongest bin must be the bin nearest the true
	// slant range.
	for i := 0; i < p.NumPulses; i++ {
		r := Range(p.TrackPos(i), nil, tg)
		wantBin := int(math.Round((r - p.R0) / p.DR))
		row := data.Row(i)
		best, bestV := -1, float32(-1)
		for c, v := range row {
			if m := cf.Abs2(v); m > bestV {
				best, bestV = c, m
			}
		}
		if best != wantBin {
			t.Fatalf("pulse %d: peak at bin %d, want %d", i, best, wantBin)
		}
	}
}

func TestSimulatePhaseIsCarrierPhase(t *testing.T) {
	p := smallParams()
	tg := Target{U: 0, Y: p.CenterRange(), Amp: 1}
	data := Simulate(p, []Target{tg}, nil)
	k := 4 * math.Pi / p.Wavelength
	// At the bin nearest the target range, the phase must match
	// -k*R plus the (real, non-negative near peak) envelope factor.
	for _, i := range []int{0, p.NumPulses / 2, p.NumPulses - 1} {
		r := Range(p.TrackPos(i), nil, tg)
		bin := int(math.Round((r - p.R0) / p.DR))
		got := data.At(i, bin)
		wantPhase := math.Mod(-k*r, 2*math.Pi)
		gotPhase := math.Atan2(float64(imag(got)), float64(real(got)))
		d := math.Mod(gotPhase-wantPhase+3*math.Pi, 2*math.Pi) - math.Pi
		if math.Abs(d) > 1e-3 {
			t.Errorf("pulse %d: phase %v, want %v", i, gotPhase, wantPhase)
		}
	}
}

func TestSimulateAmplitudeScales(t *testing.T) {
	p := smallParams()
	t1 := Simulate(p, []Target{{U: 0, Y: p.CenterRange(), Amp: 1}}, nil)
	t2 := Simulate(p, []Target{{U: 0, Y: p.CenterRange(), Amp: 2}}, nil)
	mid := p.NumPulses / 2
	bin := int(math.Round((Range(p.TrackPos(mid), nil, Target{U: 0, Y: p.CenterRange()}) - p.R0) / p.DR))
	a := cf.Abs(t1.At(mid, bin))
	b := cf.Abs(t2.At(mid, bin))
	if math.Abs(float64(b/a)-2) > 1e-3 {
		t.Errorf("amplitude ratio %v, want 2", b/a)
	}
}

func TestSimulateSuperposition(t *testing.T) {
	p := smallParams()
	ta := Target{U: -20, Y: p.CenterRange() - 10, Amp: 1}
	tb := Target{U: 25, Y: p.CenterRange() + 15, Amp: 0.5}
	da := Simulate(p, []Target{ta}, nil)
	db := Simulate(p, []Target{tb}, nil)
	dab := Simulate(p, []Target{ta, tb}, nil)
	for i := 0; i < p.NumPulses; i += 7 {
		ra, rb, rab := da.Row(i), db.Row(i), dab.Row(i)
		for c := range rab {
			want := ra[c] + rb[c]
			if cfAbs(rab[c]-want) > 1e-5 {
				t.Fatalf("superposition violated at (%d,%d)", i, c)
			}
		}
	}
}

func TestSimulatePathErrorShiftsRange(t *testing.T) {
	p := smallParams()
	tg := Target{U: 0, Y: p.CenterRange(), Amp: 1}
	// Constant 2 m displacement towards the scene shortens all ranges by
	// ~2 m = 4 bins.
	pe := func(u float64) float64 { return 2.0 }
	d0 := Simulate(p, []Target{tg}, nil)
	d1 := Simulate(p, []Target{tg}, pe)
	mid := p.NumPulses / 2
	peak := func(row []complex64) int {
		best, bestV := -1, float32(-1)
		for c, v := range row {
			if m := cf.Abs2(v); m > bestV {
				best, bestV = c, m
			}
		}
		return best
	}
	p0 := peak(d0.Row(mid))
	p1 := peak(d1.Row(mid))
	if p0-p1 != 4 {
		t.Errorf("path error shifted peak by %d bins, want 4", p0-p1)
	}
}

// TestSimulateBitIdenticalAcrossWorkers pins Simulate and SimulateRaw to
// their one-worker output, bit for bit, at 1, 2 and 7 workers and at
// GOMAXPROCS: at an odd shape under a path error, where 9 pulses split
// into uneven bands, and at paper scale.
func TestSimulateBitIdenticalAcrossWorkers(t *testing.T) {
	odd := smallParams()
	odd.NumPulses, odd.NumBins = 9, 101
	paper := DefaultParams()
	pathErr := func(u float64) float64 { return 0.4 * math.Sin(u/9) }
	for _, c := range []struct {
		name    string
		p       Params
		targets []Target
	}{
		{"9x101", odd, RandomScene(4, 7, -20, 20, odd.R0+10*odd.DR, odd.R0+90*odd.DR)},
		{"paper", paper, SixTargetScene(paper)},
	} {
		ch := c.p.DefaultChirp()
		want := simulate(c.p, c.targets, pathErr, 1)
		wantRaw := simulateRaw(c.p, ch, c.targets, pathErr, 1)
		for _, w := range []int{1, 2, 7} {
			sameBits(t, fmt.Sprintf("%s Simulate on %d workers", c.name, w), simulate(c.p, c.targets, pathErr, w), want)
			sameBits(t, fmt.Sprintf("%s SimulateRaw on %d workers", c.name, w), simulateRaw(c.p, ch, c.targets, pathErr, w), wantRaw)
		}
		sameBits(t, c.name+" Simulate", Simulate(c.p, c.targets, pathErr), want)
		sameBits(t, c.name+" SimulateRaw", SimulateRaw(c.p, ch, c.targets, pathErr), wantRaw)
	}
}

func TestSixTargetSceneInsideSwath(t *testing.T) {
	p := DefaultParams()
	ts := SixTargetScene(p)
	if len(ts) != 6 {
		t.Fatalf("scene has %d targets", len(ts))
	}
	maxRange := p.R0 + float64(p.NumBins-1)*p.DR // the last range bin
	for i, tg := range ts {
		if tg.Y <= p.R0 || tg.Y >= maxRange {
			t.Errorf("target %d outside swath: Y=%v", i, tg.Y)
		}
		if math.Abs(tg.U) > p.ApertureLength()/2 {
			t.Errorf("target %d outside aperture: U=%v", i, tg.U)
		}
	}
}

func TestChirpReference(t *testing.T) {
	ch := Chirp{Samples: 64, ResBins: 2}
	ref := ch.Reference()
	if len(ref) != 64 {
		t.Fatalf("reference length %d", len(ref))
	}
	// Unit modulus everywhere.
	for i, v := range ref {
		if math.Abs(float64(cf.Abs2(v))-1) > 1e-5 {
			t.Fatalf("sample %d modulus %v", i, cf.Abs2(v))
		}
	}
	// Symmetric phase (phi(t) = pi K t^2 about the centre).
	n := len(ref)
	for i := 1; i < n/2; i++ {
		a, b := ref[n/2-i], ref[n/2+i]
		if cfAbs(a-b) > 1e-4 {
			t.Fatalf("chirp not symmetric at %d: %v %v", i, a, b)
		}
	}
}

func TestCompressMatchesDirectSynthesis(t *testing.T) {
	// The explicit chirp + matched-filter path must produce range profiles
	// whose peaks coincide with the direct synthesis path.
	p := smallParams()
	ch := p.DefaultChirp()
	tg := Target{U: 10, Y: p.CenterRange() - 20, Amp: 1}
	raw := SimulateRaw(p, ch, []Target{tg}, nil)
	comp := Compress(p, ch, raw)
	direct := Simulate(p, []Target{tg}, nil)
	if comp.Rows != direct.Rows || comp.Cols != direct.Cols {
		t.Fatalf("compressed dims %dx%d", comp.Rows, comp.Cols)
	}
	peak := func(row []complex64) int {
		best, bestV := -1, float32(-1)
		for c, v := range row {
			if m := cf.Abs2(v); m > bestV {
				best, bestV = c, m
			}
		}
		return best
	}
	for i := 0; i < p.NumPulses; i += 5 {
		pc := peak(comp.Row(i))
		pd := peak(direct.Row(i))
		if abs(pc-pd) > 1 {
			t.Fatalf("pulse %d: compressed peak %d vs direct %d", i, pc, pd)
		}
	}
	// Peak magnitude is near the target amplitude after normalization.
	mid := p.NumPulses / 2
	m := cf.Abs(comp.At(mid, peak(comp.Row(mid))))
	if m < 0.5 || m > 1.5 {
		t.Errorf("compressed peak magnitude %v, want ~1", m)
	}
}

func TestCompressRejectsWrongWidth(t *testing.T) {
	p := smallParams()
	ch := p.DefaultChirp()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Compress(p, ch, Simulate(p, nil, nil))
}

func cfAbs(z complex64) float64 {
	return math.Hypot(float64(real(z)), float64(imag(z)))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkSimulateSixTargets(b *testing.B) {
	p := DefaultParams()
	ts := SixTargetScene(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(p, ts, nil)
	}
}
