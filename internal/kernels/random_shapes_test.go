package kernels

import (
	"math"
	"math/rand"
	"testing"

	"sarmany/internal/autofocus"
	"sarmany/internal/emu"
	"sarmany/internal/ffbp"
	"sarmany/internal/gbp"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/machine"
	"sarmany/internal/mat"
	"sarmany/internal/refcpu"
	"sarmany/internal/sar"
)

// TestFFBPKernelsMatchImageAtRandomShapes draws seeded geometries of odd
// shape and checks that SeqFFBP on the Intel reference and on one E16G3
// core, and ParFFBP on E16G3 at a random core count from 1 to 16, each
// form ffbp.Image's nearest-neighbour image (one worker) in float32 bits,
// compared by imageSHA256. NumPulses is a power of two from 2 to 64 and
// NumBins odd from 3 to 61. Every other geometry starts its ranges below
// the last merge's child half-length, where the run finder takes the
// exact path and every run is one pixel; narrow scene boxes off to one
// side put some children wholly outside some beams. The data are random,
// with a quarter of the samples -0, so that a merge's signed zeros show.
func TestFFBPKernelsMatchImageAtRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var exact, outside int
	for trial := range 48 {
		p := sar.DefaultParams()
		p.NumPulses = 2 << rng.Intn(6)
		p.NumBins = 3 + 2*rng.Intn(30)
		p.DR = 0.2 + rng.Float64()
		p.RangeRes = p.DR
		h := float64(p.NumPulses) * p.PulseSpacing / 4
		p.R0 = h * (0.05 + 0.9*rng.Float64())
		if trial%2 == 1 {
			p.R0 = h + 100*rng.Float64()
		}
		swath := float64(p.NumBins-1) * p.DR
		u := 4 * h * (rng.Float64() - 0.5)
		w := 0.1 + 2*h*rng.Float64()
		y := p.R0 + swath*rng.Float64()
		box := geom.SceneBox{UMin: u - w, UMax: u + w, YMin: y, YMax: y + 0.5*swath*rng.Float64() + 0.1, ThetaPad: 0.1 * rng.Float64()}
		data := randomData(rng, p)
		cores := 1 + rng.Intn(16)

		// Which paths the geometry takes: every run of a beam one pixel
		// long, and a child with no sample in a beam.
		stages, err := ffbp.Stages(data, p, box)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var allOne, anyOutside bool
		for s := range len(stages) - 1 {
			kids, parents := stages[s], stages[s+1]
			for j, pg := range parents.Grids {
				g0, g1 := kids.Grids[2*j], kids.Grids[2*j+1]
				for bt := range pg.NTheta {
					minus, plus := geom.NearestRuns(nil, nil, pg, bt, kids.Apertures[2*j].Length, g0, g1, g0.NR, g1.NR)
					for _, runs := range [2][][3]int32{minus, plus} {
						anyOutside = anyOutside || len(runs) == 1 && runs[0][2] < 0
						allOne = allOne || pg.NR > 1 && len(runs) == pg.NR
					}
				}
			}
		}
		if allOne {
			exact++
		}
		if anyOutside {
			outside++
		}

		want, wantGrid, err := ffbp.Image(data, p, box, ffbp.Config{Interp: interp.Nearest, Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cpu := refcpu.New(refcpu.I7M620())
		ch1, ch := emu.New(emu.E16G3()), emu.New(emu.E16G3())
		for _, run := range []struct {
			name string
			form func() (*mat.C, geom.PolarGrid, error)
		}{
			{"SeqFFBP on refcpu", func() (*mat.C, geom.PolarGrid, error) { return SeqFFBP(cpu, cpu.Mem(), data, p, box) }},
			{"SeqFFBP on one E16G3 core", func() (*mat.C, geom.PolarGrid, error) { return SeqFFBP(ch1.Cores[0], ch1.Ext(), data, p, box) }},
			{"ParFFBP on E16G3", func() (*mat.C, geom.PolarGrid, error) { return ParFFBP(ch, cores, data, p, box) }},
		} {
			img, grid, err := run.form()
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, run.name, err)
			}
			if grid != wantGrid || imageSHA256(img) != imageSHA256(want) {
				t.Errorf("trial %d, %s (%d pulses, %d bins, R0 %.3g, DR %.3g, %d cores, box %+v): image differs from ffbp.Image",
					trial, run.name, p.NumPulses, p.NumBins, p.R0, p.DR, cores, box)
			}
		}
	}
	if exact == 0 || outside == 0 {
		t.Errorf("%d geometries took the exact path and %d put a child outside a beam; want some of each", exact, outside)
	}
	t.Logf("%d geometries took the exact path, %d put a child outside a beam", exact, outside)
}

// TestGBPKernelMatchesImageRefAtRandomShapes draws 48 seeded geometries —
// 1 to 40 pulses, odd 3 to 61 bins, random R0, DR and scene box, and 1 to
// 9 beams — and checks that SeqGBP on the Intel reference and on one
// E16G3 core each form gbp.ImageRef's nearest-neighbour image (one
// worker) in float32 bits. A quarter of the samples are -0, which both
// skip as zero, and off-centre pulses put some pixels' ranges outside the
// range grid, which both skip too; the Intel reference's load and sincos
// counts show that some samples take each path.
func TestGBPKernelMatchesImageRefAtRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var outside, zero uint64
	for trial := range 48 {
		p := sar.DefaultParams()
		p.NumPulses = 1 + rng.Intn(40)
		p.NumBins = 3 + 2*rng.Intn(30)
		p.DR = 0.2 + rng.Float64()
		p.RangeRes = p.DR
		p.R0 = 1 + 200*rng.Float64()
		swath := float64(p.NumBins-1) * p.DR
		h := p.ApertureLength() / 2
		u := 4 * h * (rng.Float64() - 0.5)
		w := 0.1 + 2*h*rng.Float64()
		y := p.R0 + swath*rng.Float64()
		box := geom.SceneBox{UMin: u - w, UMax: u + w, YMin: y, YMax: y + 0.5*swath*rng.Float64() + 0.1, ThetaPad: 0.1 * rng.Float64()}
		grid := box.GridFor(geom.Aperture{Length: p.ApertureLength()}, 1+rng.Intn(9), p.NumBins, p.R0, p.DR)
		data := randomData(rng, p)

		want := imageSHA256(gbp.ImageRef(data, p, grid, gbp.Config{Interp: interp.Nearest, Workers: 1}))
		cpu := refcpu.New(refcpu.I7M620())
		ch := emu.New(emu.E16G3())
		for _, run := range []struct {
			name string
			m    machine.Machine
			mem  machine.Alloc
		}{
			{"SeqGBP on refcpu", cpu, cpu.Mem()},
			{"SeqGBP on one E16G3 core", ch.Cores[0], ch.Ext()},
		} {
			img, err := SeqGBP(run.m, run.mem, data, p, grid)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, run.name, err)
			}
			if imageSHA256(img) != want {
				t.Errorf("trial %d, %s (%d pulses, %d bins, %d beams, R0 %.3g, DR %.3g, box %+v): image differs from gbp.ImageRef",
					trial, run.name, p.NumPulses, p.NumBins, grid.NTheta, p.R0, p.DR, box)
			}
		}
		// Every pixel loads each pulse's sample unless its range falls
		// outside the grid, and rotates it unless it is zero.
		s := cpu.Stats
		outside += uint64(grid.NTheta*grid.NR*p.NumPulses) - s.Loads
		zero += s.Loads - (s.Trig - uint64(beamSetup.Trig*grid.NTheta))
	}
	if outside == 0 || zero == 0 {
		t.Errorf("%d samples fell outside the range grid and %d were skipped as zero; want some of each", outside, zero)
	}
	t.Logf("%d samples fell outside the range grid, %d were skipped as zero", outside, zero)
}

// TestAutofocusKernelsMatchCriterionAtRandomShapes draws 16 seeded
// workloads of 1 to 9 random block pairs and a random range sweep of 1 to
// 8 shifts with random beam shifts and tilts, and checks that SeqAutofocus
// on the Intel reference and on one E16G3 core, and ParAutofocus on
// E16G3, each score every pair under every shift as autofocus.Criterion
// does, in float64 bits.
func TestAutofocusKernelsMatchCriterionAtRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := range 16 {
		pairs := make([]BlockPair, 1+rng.Intn(9))
		for i := range pairs {
			for _, b := range []*autofocus.Block{&pairs[i].Minus, &pairs[i].Plus} {
				for r := range b {
					for c := range b[r] {
						b[r][c] = complex(2*rng.Float32()-1, 2*rng.Float32()-1)
					}
				}
			}
		}
		lo := 3 * (rng.Float64() - 0.5)
		shifts := autofocus.RangeSweep(lo, lo+rng.Float64(), 1+rng.Intn(8))
		for j := range shifts {
			shifts[j].DBeam, shifts[j].Tilt = 3*(rng.Float64()-0.5), 0.4*(rng.Float64()-0.5)
		}
		want := make([][]uint64, len(pairs))
		for i := range pairs {
			for _, s := range shifts {
				want[i] = append(want[i], math.Float64bits(autofocus.Criterion(&pairs[i].Minus, &pairs[i].Plus, s)))
			}
		}
		cpu := refcpu.New(refcpu.I7M620())
		ch1 := emu.New(emu.E16G3())
		for _, run := range []struct {
			name  string
			score func() ([][]float64, error)
		}{
			{"SeqAutofocus on refcpu", func() ([][]float64, error) { return SeqAutofocus(cpu, cpu.Mem(), pairs, shifts) }},
			{"SeqAutofocus on one E16G3 core", func() ([][]float64, error) { return SeqAutofocus(ch1.Cores[0], ch1.Ext(), pairs, shifts) }},
			{"ParAutofocus on E16G3", func() ([][]float64, error) { return ParAutofocus(emu.New(emu.E16G3()), pairs, shifts) }},
		} {
			scores, err := run.score()
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, run.name, err)
			}
			for i := range want {
				for j, w := range want[i] {
					if g := math.Float64bits(scores[i][j]); g != w {
						t.Errorf("trial %d, %s: pair %d of %d, shift %+v: score %v, autofocus.Criterion %v",
							trial, run.name, i, len(pairs), shifts[j], scores[i][j], math.Float64frombits(w))
					}
				}
			}
		}
	}
}

// randomData returns random samples in the shape p gives, a quarter of
// them -0, so that a kernel's signed zeros show.
func randomData(rng *rand.Rand, p sar.Params) *mat.C {
	data := mat.NewC(p.NumPulses, p.NumBins)
	for i := range data.Data {
		if rng.Intn(4) == 0 {
			data.Data[i] = complex(float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1)))
		} else {
			data.Data[i] = complex(2*rng.Float32()-1, 2*rng.Float32()-1)
		}
	}
	return data
}
