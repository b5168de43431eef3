package kernels

import (
	"math"
	"math/rand"
	"testing"

	"sarmany/internal/emu"
	"sarmany/internal/ffbp"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
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
		data := mat.NewC(p.NumPulses, p.NumBins)
		for i := range data.Data {
			if rng.Intn(4) == 0 {
				data.Data[i] = complex(float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1)))
			} else {
				data.Data[i] = complex(2*rng.Float32()-1, 2*rng.Float32()-1)
			}
		}
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
