package imageio

import (
	"bufio"
	"bytes"
	"fmt"
	"image"
	"image/png"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sarmany/internal/cf"
	"sarmany/internal/mat"
)

func testImage() *mat.C {
	img := mat.NewC(4, 6)
	img.Set(1, 2, complex(10, 0)) // peak
	img.Set(2, 3, complex(1, 0))  // -20 dB
	return img
}

func TestRenderPeakWhite(t *testing.T) {
	g := Render(testImage(), 60)
	if got := g.GrayAt(2, 1).Y; got != 255 {
		t.Errorf("peak pixel = %d, want 255", got)
	}
	// -20 dB of a 60 dB range: 255*(40/60) = 170.
	if got := g.GrayAt(3, 2).Y; got < 168 || got > 172 {
		t.Errorf("-20 dB pixel = %d, want ~170", got)
	}
	// Zero pixels at the bottom of the range.
	if got := g.GrayAt(0, 0).Y; got != 0 {
		t.Errorf("zero pixel = %d", got)
	}
}

func TestRenderZeroImage(t *testing.T) {
	g := Render(mat.NewC(3, 3), 60)
	for i := range g.Pix {
		if g.Pix[i] != 0 {
			t.Fatal("zero image not black")
		}
	}
}

func TestRenderDefaultRange(t *testing.T) {
	g := Render(testImage(), 0) // falls back to 60 dB
	if got := g.GrayAt(2, 1).Y; got != 255 {
		t.Errorf("peak = %d", got)
	}
}

func TestSavePNGRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img.png")
	if err := Save(path, testImage(), 60); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decoded, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds().Dx() != 6 || decoded.Bounds().Dy() != 4 {
		t.Errorf("decoded bounds %v", decoded.Bounds())
	}
}

func TestSavePGMFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img.pgm")
	if err := Save(path, testImage(), 60); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var magic string
	var w, h, maxv int
	if _, err := fmt.Fscanf(r, "P%s\n%d %d\n%d\n", &magic, &w, &h, &maxv); err != nil {
		t.Fatal(err)
	}
	magic = "P" + magic
	if magic != "P5" || w != 6 || h != 4 || maxv != 255 {
		t.Errorf("header %q %d %d %d", magic, w, h, maxv)
	}
	rest := make([]byte, w*h+1)
	n, _ := r.Read(rest)
	if n != w*h {
		t.Errorf("payload %d bytes, want %d", n, w*h)
	}
}

func TestSaveUnknownExtension(t *testing.T) {
	if err := Save(filepath.Join(t.TempDir(), "img.bmp"), testImage(), 60); err == nil {
		t.Error("unknown extension accepted")
	}
}

// renderSerial is Render's arithmetic in one serial loop over the rows:
// the oracle Render's banded passes must match byte for byte.
func renderSerial(img *mat.C, dynamicRangeDB float64) *image.Gray {
	if dynamicRangeDB <= 0 {
		dynamicRangeDB = 60
	}
	out := image.NewGray(image.Rect(0, 0, img.Cols, img.Rows))
	var peak float64
	for r := 0; r < img.Rows; r++ {
		for _, v := range img.Row(r) {
			if m := float64(cf.Abs2(v)); m > peak {
				peak = m
			}
		}
	}
	if peak == 0 {
		return out
	}
	for r := 0; r < img.Rows; r++ {
		row := img.Row(r)
		for c, v := range row {
			m := float64(cf.Abs2(v))
			var db float64
			if m <= 0 {
				db = -dynamicRangeDB
			} else {
				db = 10 * math.Log10(m/peak) // power dB
				if db < -dynamicRangeDB {
					db = -dynamicRangeDB
				}
			}
			level := 255 * (db + dynamicRangeDB) / dynamicRangeDB
			if level < 0 {
				level = 0
			}
			if level > 255 {
				level = 255
			}
			out.Pix[r*out.Stride+c] = uint8(level)
		}
	}
	return out
}

// TestRenderMatchesSerial checks Render's banded passes against the
// serial loop, byte for byte, at GOMAXPROCS 1 and 4, on a seeded image
// with an all-zero row, a NaN pixel and its peak in the last row.
func TestRenderMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	img := mat.NewC(37, 53)
	for r := 0; r < img.Rows; r++ {
		if r == 11 {
			continue // the all-zero row
		}
		for c := range img.Row(r) {
			img.Set(r, c, complex(float32(rng.NormFloat64()), float32(rng.NormFloat64())))
		}
	}
	img.Set(20, 7, complex(float32(math.NaN()), 1))
	img.Set(36, 50, complex(40, -30))
	want := renderSerial(img, 45)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := Render(img, 45); !bytes.Equal(got.Pix, want.Pix) || got.Rect != want.Rect {
			t.Errorf("GOMAXPROCS %d: Render differs from the serial loop", procs)
		}
	}
	if want.GrayAt(50, 36).Y != 255 {
		t.Errorf("peak pixel = %d, want 255", want.GrayAt(50, 36).Y)
	}
}
