package sarmany_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sarmany"
)

func TestPublicRDAAndMocomp(t *testing.T) {
	p, _ := smallSystem()
	tg := sarmany.Target{U: 10, Y: 540, Amp: 1}
	drift := func(u float64) float64 {
		if u > 0 {
			return 0.6
		}
		return 0
	}
	dirty := sarmany.Simulate(p, []sarmany.Target{tg}, drift)

	img, err := sarmany.RDA(dirty, p)
	if err != nil {
		t.Fatal(err)
	}
	if img.Rows != p.NumPulses || img.Cols != p.NumBins {
		t.Fatalf("RDA image %dx%d", img.Rows, img.Cols)
	}
	comp := sarmany.MotionCompensate(dirty, p, drift)
	compImg, err := sarmany.RDA(comp, p)
	if err != nil {
		t.Fatal(err)
	}
	// Motion compensation concentrates the image: lower entropy.
	ed := sarmany.ImageEntropy(sarmany.Magnitude(img))
	ec := sarmany.ImageEntropy(sarmany.Magnitude(compImg))
	if ec >= ed {
		t.Errorf("compensated entropy %v not below uncompensated %v", ec, ed)
	}
}

func TestPublicFFBPBase(t *testing.T) {
	p, box := smallSystem() // 128 pulses: not a power of 4
	data := sarmany.Simulate(p, []sarmany.Target{{U: 0, Y: 540, Amp: 1}}, nil)
	if _, _, err := sarmany.FFBPBase(data, p, box, sarmany.Nearest, 4); err == nil {
		t.Error("base 4 on 128 pulses accepted")
	}
	img2, _, err := sarmany.FFBPBase(data, p, box, sarmany.Nearest, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := sarmany.FFBP(data, p, box, sarmany.Nearest, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !img2.Equal(ref) {
		t.Error("FFBPBase(2) differs from FFBP")
	}
}

func TestPublicWriteFigure7(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation skipped in -short mode")
	}
	dir := t.TempDir()
	var buf strings.Builder
	if err := sarmany.WriteFigure7(&buf, sarmany.SmallExperiment(), dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig7a_raw.png", "fig7b_gbp.png", "fig7c_ffbp_intel.png", "fig7d_ffbp_epiphany.png"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
	if err := sarmany.WriteFigure7(&buf, sarmany.SmallExperiment(), ""); err == nil {
		t.Error("WriteFigure7 accepted an empty image directory")
	}
}

func TestPublicUpsampleAndSinc8(t *testing.T) {
	p, box := smallSystem()
	data := sarmany.Simulate(p, []sarmany.Target{{U: 0, Y: 540, Amp: 1}}, nil)
	up, q, err := sarmany.UpsampleRange(data, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.DR != p.DR/2 {
		t.Errorf("upsampled DR %v", q.DR)
	}
	img, _, err := sarmany.FFBP(up, q, box, sarmany.Sinc8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if img.Rows != q.NumPulses || img.Cols != q.NumBins {
		t.Fatalf("image %dx%d", img.Rows, img.Cols)
	}
}

func TestPublicRandomScene(t *testing.T) {
	a := sarmany.RandomScene(10, 42, -50, 50, 500, 600)
	b := sarmany.RandomScene(10, 42, -50, 50, 500, 600)
	if len(a) != 10 {
		t.Fatalf("%d targets", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
		if a[i].U < -50 || a[i].U > 50 || a[i].Y < 500 || a[i].Y > 600 {
			t.Fatalf("target %d outside bounds: %+v", i, a[i])
		}
		if a[i].Amp < 0.5 || a[i].Amp > 1 {
			t.Fatalf("target %d amplitude %v", i, a[i].Amp)
		}
	}
}
