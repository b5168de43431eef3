// Package imageio renders complex SAR images to grayscale picture files
// (PGM and PNG), reproducing the presentation of the paper's Fig. 7:
// magnitude on a logarithmic (dB) scale, clipped to a chosen dynamic range
// below the image peak.
package imageio

import (
	"fmt"
	"image"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"sarmany/internal/cf"
	"sarmany/internal/mat"
)

// Render converts a complex image to 8-bit grayscale: pixel brightness is
// the magnitude in dB relative to the image peak, with dynamicRangeDB of
// range mapped onto 0..255 (the peak is white). A zero image renders
// black. Both passes run on mat.Parallel bands: the peak is the largest
// band peak, NaN pixels skipped; then each band writes its gray levels.
func Render(img *mat.C, dynamicRangeDB float64) *image.Gray {
	if dynamicRangeDB <= 0 {
		dynamicRangeDB = 60
	}
	out := image.NewGray(image.Rect(0, 0, img.Cols, img.Rows))
	var mu sync.Mutex
	var peak float64
	mat.Parallel(img.Rows, 0, func(lo, hi int) {
		var p float64
		for r := lo; r < hi; r++ {
			for _, v := range img.Row(r) {
				if m := float64(cf.Abs2(v)); m > p {
					p = m
				}
			}
		}
		mu.Lock()
		if p > peak {
			peak = p
		}
		mu.Unlock()
	})
	if peak == 0 {
		return out
	}
	mat.Parallel(img.Rows, 0, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			pix := out.Pix[r*out.Stride:]
			for c, v := range img.Row(r) {
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
				pix[c] = uint8(level)
			}
		}
	})
	return out
}

// Save writes a complex image to path, choosing the format from the
// extension: .png or .pgm. The image is rendered with Render at the given
// dynamic range in dB.
func Save(path string, img *mat.C, dynamicRangeDB float64) error {
	g := Render(img, dynamicRangeDB)
	switch strings.ToLower(filepath.Ext(path)) {
	case ".png":
		return WritePNG(path, g)
	case ".pgm":
		return WritePGM(path, g)
	default:
		return fmt.Errorf("imageio: unsupported extension in %q (want .png or .pgm)", path)
	}
}

// WritePNG writes a grayscale image as PNG.
func WritePNG(path string, g *image.Gray) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := png.Encode(f, g); err != nil {
		return err
	}
	return f.Sync()
}

// WritePGM writes a grayscale image in binary PGM (P5) format.
func WritePGM(path string, g *image.Gray) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	b := g.Bounds()
	if _, err := fmt.Fprintf(f, "P5\n%d %d\n255\n", b.Dx(), b.Dy()); err != nil {
		return err
	}
	for y := b.Min.Y; y < b.Max.Y; y++ {
		row := g.Pix[y*g.Stride : y*g.Stride+b.Dx()]
		if _, err := f.Write(row); err != nil {
			return err
		}
	}
	return f.Sync()
}
