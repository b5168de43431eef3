package ffbp

import (
	"math"
	"math/bits"
	"testing"

	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/quality"
	"sarmany/internal/sar"
)

// testParams returns a reduced geometry that still focuses well: 256
// pulses over a 256 m aperture imaging a scene around 550 m range.
func testParams() (sar.Params, geom.SceneBox) {
	p := sar.DefaultParams()
	p.NumPulses = 256
	p.NumBins = 241
	p.R0 = 500
	box := geom.SceneBox{UMin: -40, UMax: 40, YMin: 510, YMax: 610, ThetaPad: 0.05}
	return p, box
}

// TestNumIterations checks that FFBP merges np pulses down to one
// subaperture in log2(np) iterations, each doubling the beams: the
// bits.Len(np) - 1 count that cmd/epirun prints and DefaultFocusConfig
// places its final level by. The paper's 1024 pulses take ten.
func TestNumIterations(t *testing.T) {
	for np, want := range map[int]int{1: 0, 2: 1, 4: 2, 64: 6, 1024: 10} {
		p, box := testParams()
		p.NumPulses = np
		p.NumBins = 8
		s, err := InitialStage(sar.Simulate(p, nil, nil), p, box)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for s.NumSubapertures() > 1 {
			if s, err = Merge(s, box, Config{Interp: interp.Nearest, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != want || n != bits.Len(uint(np))-1 {
			t.Errorf("%d pulses: %d merge iterations, want %d", np, n, want)
		}
		if s.Grids[0].NTheta != np {
			t.Errorf("%d pulses: final image has %d beams, want %d", np, s.Grids[0].NTheta, np)
		}
	}
}

func TestInitialStageShape(t *testing.T) {
	p, box := testParams()
	data := sar.Simulate(p, nil, nil)
	s, err := InitialStage(data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSubapertures() != p.NumPulses {
		t.Fatalf("stage 0 has %d subapertures", s.NumSubapertures())
	}
	for i, img := range s.Images {
		if img.Rows != 1 || img.Cols != p.NumBins {
			t.Fatalf("subimage %d is %dx%d", i, img.Rows, img.Cols)
		}
		if s.Grids[i].NTheta != 1 {
			t.Fatalf("grid %d has %d beams", i, s.Grids[i].NTheta)
		}
	}
}

func TestInitialStageCarrierRemoval(t *testing.T) {
	// After carrier removal, a target bin's phase is the envelope residual:
	// near zero at the bin closest to the target range.
	p, box := testParams()
	tg := sar.Target{U: 0, Y: p.CenterRange(), Amp: 1}
	data := sar.Simulate(p, []sar.Target{tg}, nil)
	s, err := InitialStage(data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	mid := p.NumPulses / 2
	r := sar.Range(p.TrackPos(mid), nil, tg)
	bin := int(math.Round((r - p.R0) / p.DR))
	v := s.Images[mid].At(0, bin)
	phase := math.Atan2(float64(imag(v)), float64(real(v)))
	// Residual phase = 4*pi*(binRange - r)/lambda, bounded by quantization.
	maxResidual := 4 * math.Pi * (p.DR / 2) / p.Wavelength
	if math.Abs(phase) > maxResidual+1e-3 {
		t.Errorf("residual phase %v exceeds bound %v", phase, maxResidual)
	}
}

func TestInitialStageErrors(t *testing.T) {
	p, box := testParams()
	if _, err := InitialStage(mat.NewC(3, 3), p, box); err == nil {
		t.Error("dimension mismatch not rejected")
	}
	p2 := p
	p2.NumPulses = 100 // not a power of two
	if _, _, err := Image(sar.Simulate(p2, nil, nil), p2, box, Config{}); err == nil {
		t.Error("non-power-of-two pulse count not rejected by Image")
	}
	p3 := p
	p3.DR = -1
	if _, err := InitialStage(mat.NewC(p.NumPulses, p.NumBins), p3, box); err == nil {
		t.Error("invalid params not rejected")
	}
}

func TestMergeHalvesSubapertures(t *testing.T) {
	p, box := testParams()
	data := sar.Simulate(p, sar.SixTargetScene(p), nil)
	s, err := InitialStage(data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumPulses
	ntheta := 1
	for n > 1 {
		s, err = Merge(s, box, Config{Interp: interp.Nearest})
		if err != nil {
			t.Fatal(err)
		}
		n /= 2
		ntheta *= 2
		if s.NumSubapertures() != n {
			t.Fatalf("expected %d subapertures, got %d", n, s.NumSubapertures())
		}
		if s.Grids[0].NTheta != ntheta {
			t.Fatalf("expected %d beams, got %d", ntheta, s.Grids[0].NTheta)
		}
	}
}

func TestMergeOddSubaperturesFails(t *testing.T) {
	s := &Stage{
		Apertures: make([]geom.Aperture, 3),
		Grids:     make([]geom.PolarGrid, 3),
		Images:    []*mat.C{mat.NewC(1, 4), mat.NewC(1, 4), mat.NewC(1, 4)},
	}
	if _, err := Merge(s, geom.SceneBox{}, Config{}); err == nil {
		t.Error("expected error for odd subaperture count")
	}
}

// TestMergeRejectsImageGridMismatch checks that Merge refuses a stage
// whose image shape differs from its grid: the Nearest merge reads child
// samples at offsets computed on the grid.
func TestMergeRejectsImageGridMismatch(t *testing.T) {
	p, box := testParams()
	p.NumPulses = 4
	s, err := InitialStage(sar.Simulate(p, nil, nil), p, box)
	if err != nil {
		t.Fatal(err)
	}
	s.Images[1] = s.Images[1].View(0, 0, 1, p.NumBins-1)
	if _, err := Merge(s, box, Config{Interp: interp.Nearest}); err == nil {
		t.Error("expected an error for an image narrower than its grid")
	}
}

// targetPixel returns the expected (beam, range-bin) pixel of a target in
// the final full-aperture image.
func targetPixel(g geom.PolarGrid, tg sar.Target) (bt, bi int) {
	r := math.Hypot(tg.U, tg.Y)
	th := math.Atan2(tg.Y, tg.U)
	return int(math.Round(g.ThetaIndex(th))), int(math.Round(g.RangeIndex(r)))
}

func TestImageFocusesSingleTarget(t *testing.T) {
	p, box := testParams()
	tg := sar.Target{U: 10, Y: 555, Amp: 1}
	data := sar.Simulate(p, []sar.Target{tg}, nil)
	img, g, err := Image(data, p, box, Config{Interp: interp.Linear})
	if err != nil {
		t.Fatal(err)
	}
	if img.Rows != p.NumPulses || img.Cols != p.NumBins {
		t.Fatalf("image is %dx%d", img.Rows, img.Cols)
	}
	m := quality.Mag(img)
	pr, pc, pv := quality.Peak(m)
	wr, wc := targetPixel(g, tg)
	// The azimuth mainlobe spans many beam pixels on this grid (the image
	// is heavily oversampled in angle), so allow a wider beam tolerance.
	if abs(pr-wr) > 6 || abs(pc-wc) > 2 {
		t.Errorf("peak at (%d,%d), want (%d,%d)", pr, pc, wr, wc)
	}
	// Coherent gain: the peak must integrate a large fraction of the
	// pulses (>= 40% of perfect coherence with linear interpolation).
	if float64(pv) < 0.4*float64(p.NumPulses) {
		t.Errorf("peak %v too low for %d pulses", pv, p.NumPulses)
	}
	// Focus quality: peak well above background.
	db := quality.PeakToBackground(m, wr, wc, 6, [][2]int{{wr, wc}})
	if db < 20 {
		t.Errorf("peak-to-background %v dB, want >= 20", db)
	}
}

func TestImageFocusesMultipleTargets(t *testing.T) {
	p, box := testParams()
	targets := []sar.Target{
		{U: -30, Y: 530, Amp: 1},
		{U: 0, Y: 560, Amp: 1},
		{U: 30, Y: 590, Amp: 1},
	}
	data := sar.Simulate(p, targets, nil)
	img, g, err := Image(data, p, box, Config{Interp: interp.Linear})
	if err != nil {
		t.Fatal(err)
	}
	m := quality.Mag(img)
	for i, tg := range targets {
		wr, wc := targetPixel(g, tg)
		pr, pc, pv := quality.PeakWithin(m, wr, wc, 8)
		if abs(pr-wr) > 6 || abs(pc-wc) > 2 {
			t.Errorf("target %d: peak at (%d,%d), want (%d,%d)", i, pr, pc, wr, wc)
		}
		if float64(pv) < 0.3*float64(p.NumPulses) {
			t.Errorf("target %d: peak %v too low", i, pv)
		}
	}
}

func TestSequentialAndParallelIdentical(t *testing.T) {
	// The goroutine-parallel merge partitions work but performs identical
	// arithmetic, so results must be bit-identical to Workers=1.
	p, box := testParams()
	p.NumPulses = 64
	p.NumBins = 101
	data := sar.Simulate(p, []sar.Target{{U: 5, Y: 545, Amp: 1}}, nil)
	seq, _, err := Image(data, p, box, Config{Interp: interp.Nearest, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := Image(data, p, box, Config{Interp: interp.Nearest, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(par) {
		t.Errorf("parallel image differs from sequential (max diff %v)", seq.MaxAbsDiff(par))
	}
}

func TestInterpolationQualityOrdering(t *testing.T) {
	// The paper attributes FFBP image degradation to the simplified
	// (nearest-neighbour) interpolation and notes that quality "could be
	// considerably improved by using more complex interpolation kernels
	// such as cubic interpolation". Verify the ordering: cubic sharper
	// than nearest, and cubic achieves higher coherent gain.
	p, box := testParams()
	tg := sar.Target{U: 0, Y: 555, Amp: 1}
	data := sar.Simulate(p, []sar.Target{tg}, nil)
	var gain [3]float64
	var sharp [3]float64
	for i, k := range []interp.Kind{interp.Nearest, interp.Linear, interp.Cubic} {
		img, g, err := Image(data, p, box, Config{Interp: k})
		if err != nil {
			t.Fatal(err)
		}
		m := quality.Mag(img)
		wr, wc := targetPixel(g, tg)
		_, _, pv := quality.PeakWithin(m, wr, wc, 4)
		gain[i] = float64(pv)
		sharp[i] = quality.Sharpness(m)
	}
	if !(gain[2] > gain[0]) {
		t.Errorf("cubic gain %v not above nearest %v", gain[2], gain[0])
	}
	if !(sharp[2] > sharp[0]) {
		t.Errorf("cubic sharpness %v not above nearest %v", sharp[2], sharp[0])
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkImage256(b *testing.B) {
	p, box := testParams()
	data := sar.Simulate(p, sar.SixTargetScene(p), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Image(data, p, box, Config{Interp: interp.Nearest}); err != nil {
			b.Fatal(err)
		}
	}
}
