package ffbp

import (
	"math"
	"testing"

	"sarmany/internal/autofocus"
	"sarmany/internal/cf"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
)

var mergeKinds = []interp.Kind{interp.Nearest, interp.Linear, interp.Cubic, interp.Sinc8}

// imageRef is Image running every merge through the retained reference
// beam kernel (MergeRef): the oracle Image is pinned bit-identical to.
func imageRef(data *mat.C, p sar.Params, box geom.SceneBox, cfg Config) (*mat.C, geom.PolarGrid, error) {
	s, err := InitialStage(data, p, box)
	if err != nil {
		return nil, geom.PolarGrid{}, err
	}
	for len(s.Images) > 1 {
		if s, err = MergeRef(s, box, cfg); err != nil {
			return nil, geom.PolarGrid{}, err
		}
	}
	return s.Images[0], s.Grids[0], nil
}

// bitsEqual reports whether a and b hold the same float32 bits in every
// component of every pixel. mat.C.Equal compares with ==, under which -0
// equals +0.
func bitsEqual(a, b *mat.C) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for r := 0; r < a.Rows; r++ {
		for c, v := range a.Row(r) {
			w := b.Row(r)[c]
			if math.Float32bits(real(v)) != math.Float32bits(real(w)) ||
				math.Float32bits(imag(v)) != math.Float32bits(imag(w)) {
				return false
			}
		}
	}
	return true
}

// negZeroStage returns a copy of s whose child samples are all
// complex(-0, -0). Merged, a pixel whose minus sample is in its grid and
// whose plus sample is not is -0 + +0 = +0 in every component.
func negZeroStage(s *Stage) *Stage {
	nz := float32(math.Copysign(0, -1))
	z := &Stage{Apertures: s.Apertures, Grids: s.Grids, Images: make([]*mat.C, len(s.Images))}
	for i, img := range s.Images {
		z.Images[i] = mat.NewC(img.Rows, img.Cols)
		z.Images[i].Fill(complex(nz, nz))
	}
	return z
}

// smallParams is a light geometry for the stage-by-stage bit-identity
// checks: 64 pulses, 101 bins.
func smallParams() (sar.Params, geom.SceneBox) {
	p := sar.DefaultParams()
	p.NumPulses = 64
	p.NumBins = 101
	p.R0 = 500
	box := geom.SceneBox{UMin: -20, UMax: 20, YMin: 505, YMax: 545, ThetaPad: 0.05}
	return p, box
}

// TestFusedMergeBitIdentical pins the fused merge path (hoisted per-beam
// cos/sin, inlined nearest sampling) bit-identical to the retained
// reference, for every interpolation kernel, across the complete
// factorization. This is the invariant that keeps the simulator kernels
// (internal/kernels) bit-identical to ffbp.Image.
func TestFusedMergeBitIdentical(t *testing.T) {
	p, box := smallParams()
	data := sar.Simulate(p, []sar.Target{{U: 3, Y: 520, Amp: 1}, {U: -6, Y: 535, Amp: 0.7}}, nil)
	for _, kind := range mergeKinds {
		cfg := Config{Interp: kind, Workers: 4}
		fused, fg, err := Image(data, p, box, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, rg, err := imageRef(data, p, box, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fg != rg {
			t.Fatalf("%v: fused grid %+v differs from reference %+v", kind, fg, rg)
		}
		if !bitsEqual(fused, ref) {
			t.Errorf("%v: fused image not bit-identical to reference (max diff %v)",
				kind, fused.MaxAbsDiff(ref))
		}
	}
}

// TestFusedMergeStagewise runs every individual merge iteration through
// both beam kernels and requires bit-identity at each stage, including
// with nonzero flight-path compensations (the autofocused merge path),
// of the stage and of a copy whose samples are all -0.
func TestFusedMergeStagewise(t *testing.T) {
	p, box := smallParams()
	data := sar.Simulate(p, []sar.Target{{U: -2, Y: 525, Amp: 1}}, nil)
	for _, kind := range mergeKinds {
		s, err := InitialStage(data, p, box)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Interp: kind, Workers: 3}
		stage := 0
		for len(s.Images) > 1 {
			// Exercise the compensated path on every other stage.
			if stage%2 == 1 {
				comps := make([]autofocus.Shift, len(s.Images)/2)
				for j := range comps {
					comps[j] = autofocus.Shift{
						DRange: 0.3 - 0.05*float64(j%5),
						DBeam:  -0.2 + 0.04*float64(j%4),
					}
				}
				cfg.comps = comps
			} else {
				cfg.comps = nil
			}
			// The stage itself goes last: its merge is the next stage.
			var fused *Stage
			for _, in := range []*Stage{negZeroStage(s), s} {
				var ref *Stage
				if fused, err = Merge(in, box, cfg); err != nil {
					t.Fatal(err)
				}
				if ref, err = MergeRef(in, box, cfg); err != nil {
					t.Fatal(err)
				}
				for j := range fused.Images {
					if !bitsEqual(fused.Images[j], ref.Images[j]) {
						t.Fatalf("%v stage %d parent %d (-0 samples %v): fused not bit-identical (max diff %v)",
							kind, stage, j, in != s, fused.Images[j].MaxAbsDiff(ref.Images[j]))
					}
				}
			}
			s = fused
			stage++
		}
	}
}

// TestMergeStridedStage checks that Merge reads child images through
// their Stride: a stage whose images are views into wider matrices merges
// to the same pixels as the compact stage, for every kind, compensated or
// not.
func TestMergeStridedStage(t *testing.T) {
	p, box := smallParams()
	p.NumPulses = 16
	data := sar.Simulate(p, []sar.Target{{U: 1, Y: 520, Amp: 1}}, nil)
	s, err := InitialStage(data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if s, err = Merge(s, box, Config{Interp: interp.Nearest}); err != nil {
			t.Fatal(err)
		}
	}
	strided := &Stage{Apertures: s.Apertures, Grids: s.Grids, Images: make([]*mat.C, len(s.Images))}
	for i, img := range s.Images {
		wide := mat.NewC(img.Rows+2, img.Cols+7)
		wide.Fill(complex(1e6, -1e6)) // poison outside the view
		v := wide.View(1, 3, img.Rows, img.Cols)
		for r := 0; r < img.Rows; r++ {
			copy(v.Row(r), img.Row(r))
		}
		strided.Images[i] = v
	}
	comps := make([]autofocus.Shift, len(s.Images)/2)
	for j := range comps {
		comps[j] = autofocus.Shift{DRange: 0.4, DBeam: -0.3}
	}
	for _, kind := range mergeKinds {
		for _, c := range [][]autofocus.Shift{nil, comps} {
			cfg := Config{Interp: kind, Workers: 2, comps: c}
			want, err := Merge(s, box, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Merge(strided, box, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want.Images {
				if !bitsEqual(got.Images[j], want.Images[j]) {
					t.Errorf("%v comps=%v parent %d: strided stage merges differently (max diff %v)",
						kind, c != nil, j, got.Images[j].MaxAbsDiff(want.Images[j]))
				}
			}
		}
	}
}

// TestFusedMergeWorkerInvariant pins determinism of the fused path across
// worker counts, including more workers than beams at the earliest stage.
func TestFusedMergeWorkerInvariant(t *testing.T) {
	p, box := smallParams()
	p.NumPulses = 8
	p.NumBins = 51
	data := sar.Simulate(p, []sar.Target{{U: 1, Y: 515, Amp: 1}}, nil)
	one, _, err := Image(data, p, box, Config{Interp: interp.Nearest, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, _, err := Image(data, p, box, Config{Interp: interp.Nearest, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !one.Equal(many) {
		t.Errorf("fused image differs across worker counts (max diff %v)", one.MaxAbsDiff(many))
	}
}

// TestInitialStagePhaseContract pins the stage-0 precision contract at
// paper-scale ranges: the two-way carrier phase k*r is computed in
// float64 and rounded to float32 exactly once, so the applied rotation
// differs from the closed form by at most half a float32 ULP of the
// phase argument — 2.5e-4 rad at the paper's far edge (k*r ~ 3.9e3).
func TestInitialStagePhaseContract(t *testing.T) {
	p := sar.DefaultParams() // paper-scale ranges: R0=2000, 1001 bins, DR=0.5
	p.NumPulses = 4          // a light pulse count; the contract is per column
	data := sar.Simulate(p, nil, nil)
	for i := 0; i < data.Rows; i++ {
		row := data.Row(i)
		for c := range row {
			row[c] = 1 // unit samples: stage 0 output is exactly the rotation
		}
	}
	box := geom.SceneBox{UMin: -2, UMax: 2, YMin: 2100, YMax: 2400, ThetaPad: 0.05}
	s, err := InitialStage(data, p, box)
	if err != nil {
		t.Fatal(err)
	}
	k := 4 * math.Pi / p.Wavelength
	const maxPhaseErr = 2.5e-4 // half a float32 ULP at k*r ~ 3.9e3 rad
	for c := 0; c < p.NumBins; c++ {
		r := p.R0 + float64(c)*p.DR
		phi := k * r
		// The float64->float32 phase rounding is the only precision loss.
		if e := math.Abs(float64(float32(phi)) - phi); e > maxPhaseErr {
			t.Fatalf("bin %d: phase rounding error %v rad exceeds contract %v", c, e, maxPhaseErr)
		}
		// The applied rotation is exactly cf.Expi of the rounded phase...
		got := s.Images[0].Row(0)[c]
		if want := cf.Expi(float32(phi)); got != want {
			t.Fatalf("bin %d: stage-0 rotation %v, want %v bit-identical", c, got, want)
		}
		// ...and within the contract of the float64 closed form.
		ws, wc := math.Sincos(phi)
		if err := math.Hypot(float64(real(got))-wc, float64(imag(got))-ws); err > 2*maxPhaseErr {
			t.Fatalf("bin %d: stage-0 phase drifts %v from closed form (contract %v)",
				c, err, 2*maxPhaseErr)
		}
	}
}

func BenchmarkFFBPFused64(b *testing.B) {
	p, box := smallParams()
	data := sar.Simulate(p, []sar.Target{{U: 3, Y: 520, Amp: 1}}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Image(data, p, box, Config{Interp: interp.Nearest, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFBPRef64(b *testing.B) {
	p, box := smallParams()
	data := sar.Simulate(p, []sar.Target{{U: 3, Y: 520, Amp: 1}}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := imageRef(data, p, box, Config{Interp: interp.Nearest, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
