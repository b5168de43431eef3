package main

import (
	"bytes"
	"fmt"
	"image"
	"math"
	"strconv"

	"sarmany/internal/ffbp"
	"sarmany/internal/geom"
	"sarmany/internal/imageio"
	"sarmany/internal/interp"
	"sarmany/internal/mat"
	"sarmany/internal/quality"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

const (
	imageTargets = 6
	imageNoise   = 0.5  // noise deviation per raw sample; targets have amplitude 0.5 to 1
	imageRangeDB = 40.0 // rendered dynamic range
)

// imageInput is image-paper's set-up: seeded raw echoes and the
// one-worker reference image they must produce.
type imageInput struct {
	p       sar.Params
	box     geom.SceneBox
	chirp   sar.Chirp
	raw     *mat.C
	targets []sar.Target
	ref     *mat.C
	render  *image.Gray
	want    [][2]int // each target's expected (beam, range bin) pixel
	tol     [2]int   // how far a peak may land from it: one resolution cell
}

// imageScene places n seeded point targets in the inner part of the
// scene box, redrawing until every pair is resolvable: apart by more
// than 40% of the box in azimuth or by 40 range bins, so that no other
// target's peak falls inside a target's peak search window.
func imageScene(p sar.Params, box geom.SceneBox, n int, seed int64) []sar.Target {
	du, dy := 0.1*(box.UMax-box.UMin), 0.1*(box.YMax-box.YMin)
	for k := int64(0); ; k++ {
		ts := sar.RandomScene(n, seed*1000+k, box.UMin+du, box.UMax-du, box.YMin+dy, box.YMax-dy)
		if resolvable(ts, 0.4*(box.UMax-box.UMin), 40*p.DR) {
			return ts
		}
	}
}

func resolvable(ts []sar.Target, du, dy float64) bool {
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if math.Abs(ts[i].U-ts[j].U) <= du && math.Abs(ts[i].Y-ts[j].Y) <= dy {
				return false
			}
		}
	}
	return true
}

// targetPixel returns a target's expected pixel in the final polar image,
// whose grid is centred on the aperture.
func targetPixel(g geom.PolarGrid, t sar.Target) [2]int {
	r := math.Hypot(t.U, t.Y)
	th := math.Atan2(t.Y, t.U)
	return [2]int{int(math.Round(g.ThetaIndex(th))), int(math.Round(g.RangeIndex(r)))}
}

func imageSetup(cfg config) (*imageInput, error) {
	c, n := report.Default(), imageTargets
	if cfg.tiny {
		c, n = report.Small(), 1
	}
	in := &imageInput{p: c.Params, box: c.Box, chirp: c.Params.DefaultChirp()}
	in.targets = imageScene(in.p, in.box, n, cfg.seed)
	in.raw = sar.AddNoise(sar.SimulateRaw(in.p, in.chirp, in.targets, nil), imageNoise, cfg.seed)
	img, g, err := ffbp.Image(sar.Compress(in.p, in.chirp, in.raw), in.p, in.box, ffbp.Config{Interp: interp.Nearest, Workers: 1})
	if err != nil {
		return nil, err
	}
	in.ref, in.render = img, imageio.Render(img, imageRangeDB)
	for _, t := range in.targets {
		in.want = append(in.want, targetPixel(g, t))
	}
	// One resolution cell: the azimuth resolution lambda/(2L) in beams (the
	// nearest-neighbour merges shift peaks by up to half of it) and the
	// range resolution in bins.
	in.tol = [2]int{int(math.Round(in.p.Wavelength / (2 * in.p.ApertureLength()) / g.DTheta)),
		int(math.Ceil(in.p.RangeRes / in.p.DR))}
	return in, checkPeaks(img, in.want, in.tol)
}

// checkPeaks checks that every target's peak lands at its expected
// pixel: the brightest pixel within one azimuth resolution cell of it is
// inside the cell, not on its edge, and within tol range bins.
func checkPeaks(img *mat.C, want [][2]int, tol [2]int) error {
	mag := quality.Mag(img)
	for i, w := range want {
		r, c, _ := quality.PeakWithin(mag, w[0], w[1], tol[0])
		if abs(r-w[0]) >= tol[0] || abs(c-w[1]) > tol[1] {
			return fmt.Errorf("target %d peaks at (%d,%d), want (%d,%d) within (%d,%d)", i, r, c, w[0], w[1], tol[0], tol[1])
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var imageWorkload = workload{
	name:   "image-paper",
	opSpan: "image",
	layers: imageLayers(),
	run:    runImage,
}

func imageLayers() []layerMetric {
	out := []layerMetric{
		{"sar.compress_s", "s"}, {"sar.compress.alloc_mb", "MB"},
		{"ffbp.initial_s", "s"}, {"ffbp.merge_s", "s"}, {"ffbp.merge.alloc_mb", "MB"},
	}
	for k := 1; k <= 10; k++ {
		out = append(out, layerMetric{"ffbp.merge." + strconv.Itoa(k) + "_s", "s"})
	}
	return append(out, layerMetric{"imageio.render_s", "s"})
}

// runImage is image-paper: host image formation from seeded raw echoes
// to a rendered image, with no simulator involved.
func runImage(cfg config) (*outcome, error) {
	o := &outcome{}
	in, err := setup(cfg, o, func() (*imageInput, error) { return imageSetup(cfg) })
	if err != nil {
		return nil, err
	}
	tr := cfg.tr
	fcfg := ffbp.Config{Interp: interp.Nearest} // Workers 0: GOMAXPROCS
	measure(cfg, o, func(i int) (float64, float64, error) {
		var data *mat.C
		var st *ffbp.Stage
		var g *image.Gray
		var err error
		w := startWatch()
		op := tr.begin("image", -1, i)
		tr.timed("sar.compress", op, i, func() { data = sar.Compress(in.p, in.chirp, in.raw) })
		tr.timed("ffbp.initial", op, i, func() { st, err = ffbp.InitialStage(data, in.p, in.box) })
		merges := tr.begin("ffbp.merge", op, i)
		for k := 1; err == nil && len(st.Images) > 1; k++ {
			tr.timed("ffbp.merge."+strconv.Itoa(k), merges, i, func() { st, err = ffbp.Merge(st, in.box, fcfg) })
		}
		tr.end(merges)
		if err == nil {
			tr.timed("imageio.render", op, i, func() { g = imageio.Render(st.Images[0], imageRangeDB) })
		}
		tr.end(op)
		sec, allocB := w.stop()
		if err != nil {
			return sec, allocB, err
		}
		o.work += float64(in.p.NumPulses * in.p.NumBins)
		if !st.Images[0].Equal(in.ref) {
			return sec, allocB, fmt.Errorf("image differs from the one-worker reference")
		}
		if !bytes.Equal(g.Pix, in.render.Pix) {
			return sec, allocB, fmt.Errorf("rendered image differs from the reference")
		}
		return sec, allocB, checkPeaks(st.Images[0], in.want, in.tol)
	})
	if tr != nil {
		m := map[string]float64{
			"sar.compress_s":        median(tr.durations("sar.compress")),
			"sar.compress.alloc_mb": median(tr.allocs("sar.compress")) / 1e6,
			"ffbp.initial_s":        median(tr.durations("ffbp.initial")),
			"ffbp.merge_s":          median(tr.durations("ffbp.merge")),
			"ffbp.merge.alloc_mb":   median(tr.allocs("ffbp.merge")) / 1e6,
			"imageio.render_s":      median(tr.durations("imageio.render")),
		}
		for k := 1; k <= 10; k++ {
			name := "ffbp.merge." + strconv.Itoa(k)
			m[name+"_s"] = median(tr.durations(name))
		}
		o.layers = m
	}
	return o, nil
}
