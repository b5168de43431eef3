package ffbp

import (
	"math"
	"testing"

	"sarmany/internal/autofocus"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/quality"
	"sarmany/internal/sar"
)

// stepError displaces the platform cross-track over the second half of
// the aperture — the error a final-merge compensation can correct.
func stepError(d float64) sar.PathError {
	return func(u float64) float64 {
		if u > 0 {
			return d
		}
		return 0
	}
}

// TestDefaultFocusConfig checks that the default compensation is
// estimated at the final merge level, log2(np) - 1, clamped at 0 for
// apertures of one or two pulses.
func TestDefaultFocusConfig(t *testing.T) {
	fc := DefaultFocusConfig(1024)
	if fc.Candidates < 2 || fc.MaxShift <= 0 || fc.MaxShift > 1.5 {
		t.Errorf("bad defaults %+v", fc)
	}
	for np, want := range map[int]int{1: 0, 2: 0, 4: 1, 64: 5, 1024: 9} {
		if got := DefaultFocusConfig(np).FromLevel; got != want {
			t.Errorf("DefaultFocusConfig(%d).FromLevel = %d, want %d", np, got, want)
		}
	}
}

func TestMergeCompensatedZeroEqualsMerge(t *testing.T) {
	p, box := testParams()
	data := sar.Simulate(p, []sar.Target{{U: 0, Y: 555, Amp: 1}}, nil)
	s, err := InitialStage(data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Interp: interp.Nearest, Workers: 1}
	plain, err := Merge(s, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := MergeCompensated(s, box, cfg, make([]autofocus.Shift, len(s.Images)/2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Images {
		if !plain.Images[i].Equal(comp.Images[i]) {
			t.Fatalf("zero compensation changed image %d", i)
		}
	}
	// nil compensations are also the identity.
	nilComp, err := MergeCompensated(s, box, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Images[0].Equal(nilComp.Images[0]) {
		t.Error("nil compensation changed the merge")
	}
}

func TestMergeCompensatedWrongCount(t *testing.T) {
	p, box := testParams()
	data := sar.Simulate(p, nil, nil)
	s, err := InitialStage(data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCompensated(s, box, Config{}, make([]autofocus.Shift, 3)); err == nil {
		t.Error("wrong compensation count accepted")
	}
}

func TestMergeCompensatedShiftsPlusChild(t *testing.T) {
	// Applying a compensation of +1 range pixel to the plus child must,
	// for nearest-neighbour sampling, reproduce the result of shifting
	// the plus child image by one column.
	p, box := testParams()
	p.NumPulses = 4
	data := sar.Simulate(p, []sar.Target{{U: 0, Y: 555, Amp: 1}}, nil)
	s, err := InitialStage(data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	comps := make([]autofocus.Shift, 2)
	comps[0].DRange = 1
	comps[1].DRange = 1
	shifted, err := MergeCompensated(s, box, Config{Interp: interp.Nearest, Workers: 1}, comps)
	if err != nil {
		t.Fatal(err)
	}
	// Shift the plus children left by one column and merge plainly.
	for j := 0; j < 2; j++ {
		img := s.Images[2*j+1]
		row := img.Row(0)
		copy(row, row[1:])
		row[len(row)-1] = 0
	}
	manual, err := Merge(s, box, Config{Interp: interp.Nearest, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Results agree except where the compensated version sampled column
	// NR-1+1 (out of range -> 0) while the manual shift wrote 0 there too.
	for j := range shifted.Images {
		if d := shifted.Images[j].MaxAbsDiff(manual.Images[j]); d > 1e-6 {
			t.Errorf("pair %d: compensated merge differs from manual shift by %v", j, d)
		}
	}
}

func TestEstimatePairShiftRecoversDisplacement(t *testing.T) {
	// Two half-aperture images of the same scene, the second formed from
	// data with a cross-track displacement: the estimator must find a
	// compensating range shift close to the displacement in pixels.
	p, box := testParams()
	const disp = 0.4 // metres = 0.8 range pixels
	data := sar.Simulate(p, []sar.Target{{U: 0, Y: 555, Amp: 1}}, stepError(disp))
	s, err := InitialStage(data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Interp: interp.Cubic}
	for s.NumSubapertures() > 2 {
		if s, err = Merge(s, box, cfg); err != nil {
			t.Fatal(err)
		}
	}
	frames := PairFrames{
		GridMinus:   s.Grids[0],
		GridPlus:    s.Grids[1],
		CenterMinus: s.Apertures[0].Center,
		CenterPlus:  s.Apertures[1].Center,
	}
	shift, score, err := EstimatePairShift(s.Images[0], s.Images[1], frames, 1.3, 31)
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 {
		t.Errorf("criterion score %v", score)
	}
	// The displaced half sees shorter ranges; compensation is negative.
	want := -disp / p.DR
	if math.Abs(shift.DRange-want) > 0.45 {
		t.Errorf("estimated shift %v px, want ~%v", shift.DRange, want)
	}
}

func TestEstimatePairShiftTooSmall(t *testing.T) {
	tiny := newTinyImage()
	if _, _, err := EstimatePairShift(tiny, tiny, PairFrames{}, 1, 5); err == nil {
		t.Error("too-small image accepted")
	}
}

func TestFocusedImageImprovesDefocusedScene(t *testing.T) {
	p, box := testParams()
	const disp = 0.5
	data := sar.Simulate(p, []sar.Target{{U: 0, Y: 555, Amp: 1}}, stepError(disp))

	unfocused, _, err := Image(data, p, box, Config{Interp: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	fc := DefaultFocusConfig(p.NumPulses)
	focused, grid, history, err := FocusedImage(data, p, box, fc)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NTheta != p.NumPulses {
		t.Fatalf("grid %+v", grid)
	}
	if len(history) == 0 {
		t.Fatal("no compensations were estimated")
	}
	// The final-level compensation must point the right way (negative:
	// the displaced half-aperture saw shorter ranges).
	last := history[len(history)-1]
	if len(last) != 1 {
		t.Fatalf("final level has %d pairs", len(last))
	}
	if last[0].DRange >= 0 {
		t.Errorf("final compensation %v, want negative", last[0].DRange)
	}
	// Autofocus must improve focus quality.
	su := quality.Sharpness(quality.Mag(unfocused))
	sf := quality.Sharpness(quality.Mag(focused))
	if sf <= su {
		t.Errorf("focused sharpness %v not above unfocused %v", sf, su)
	}
	// And the focused peak must be higher (more coherent integration).
	_, _, pu := quality.Peak(quality.Mag(unfocused))
	_, _, pf := quality.Peak(quality.Mag(focused))
	if pf <= pu {
		t.Errorf("focused peak %v not above unfocused %v", pf, pu)
	}
	// Cross-check with the entropy-minimization criterion: focusing
	// concentrates energy, lowering image entropy.
	eu := quality.Entropy(quality.Mag(unfocused))
	ef := quality.Entropy(quality.Mag(focused))
	if ef >= eu {
		t.Errorf("focused entropy %v not below unfocused %v", ef, eu)
	}
}

func TestFocusedImageValidation(t *testing.T) {
	p, box := testParams()
	data := sar.Simulate(p, nil, nil)
	fc := DefaultFocusConfig(p.NumPulses)
	fc.Candidates = 0
	if _, _, _, err := FocusedImage(data, p, box, fc); err == nil {
		t.Error("zero candidates accepted")
	}
	fc = DefaultFocusConfig(p.NumPulses)
	fc.MaxShift = 3
	if _, _, _, err := FocusedImage(data, p, box, fc); err == nil {
		t.Error("out-of-window MaxShift accepted")
	}
}

func TestFocusedImageOnCleanDataStaysGood(t *testing.T) {
	// With no path error, autofocus must not noticeably damage the image:
	// estimated compensations stay small and quality stays comparable.
	p, box := testParams()
	p.NumPulses = 128
	data := sar.Simulate(p, []sar.Target{{U: 0, Y: 555, Amp: 1}}, nil)
	plain, _, err := Image(data, p, box, Config{Interp: interp.Cubic})
	if err != nil {
		t.Fatal(err)
	}
	focused, _, history, err := FocusedImage(data, p, box, DefaultFocusConfig(p.NumPulses))
	if err != nil {
		t.Fatal(err)
	}
	for lvl, comps := range history {
		for j, c := range comps {
			if math.Abs(c.DRange) > 0.7 {
				t.Errorf("level %d pair %d: spurious compensation %v on clean data", lvl, j, c.DRange)
			}
		}
	}
	sp := quality.Sharpness(quality.Mag(plain))
	sf := quality.Sharpness(quality.Mag(focused))
	if sf < 0.7*sp {
		t.Errorf("autofocus degraded clean image: %v vs %v", sf, sp)
	}
}

// newTinyImage builds a 2x2 image for size-validation tests.
func newTinyImage() *mat.C { return mat.NewC(2, 2) }
