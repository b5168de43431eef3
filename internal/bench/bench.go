// Package bench contains the experiment drivers behind cmd/benchtab and
// the top-level benchmark suite: each Run* function reruns one paper
// artifact (Table I, Fig. 7, or one of the DESIGN.md ablations), and
// Experiment runs one by its selector key and prints its human-readable
// result table.
//
// Every Run* entry point takes a context.Context and checks it between
// simulation units (machine runs, sweep points), so a sweep-engine
// timeout or cancellation stops an experiment at the next boundary
// instead of running unbounded. The Compute/PrintResult pair separates
// computing a machine-readable Result envelope from rendering it, which
// is what lets internal/sweep cache envelopes and replay them.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"sarmany/internal/autofocus"
	"sarmany/internal/emu"
	"sarmany/internal/ffbp"
	"sarmany/internal/gbp"
	"sarmany/internal/geom"
	"sarmany/internal/imageio"
	"sarmany/internal/interp"
	"sarmany/internal/kernels"
	"sarmany/internal/mat"
	"sarmany/internal/quality"
	"sarmany/internal/rda"
	"sarmany/internal/refcpu"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// Fig7Result carries the quality metrics of the Fig. 7 comparison.
type Fig7Result struct {
	// GBPSharpness and FFBPSharpness quantify "the FFBP processed images
	// have a lower quality as compared to the GBP processed image".
	GBPSharpness  float64 `json:"gbp_sharpness"`
	FFBPSharpness float64 `json:"ffbp_sharpness"`
	// CrossCorr is the GBP-vs-FFBP magnitude correlation.
	CrossCorr float64 `json:"cross_corr"`
	// IntelEpiphanyCorr compares the FFBP images from the reference-CPU
	// and Epiphany implementations ("similar in quality"; in this
	// reproduction both run the same arithmetic, so it is 1.0 exactly).
	IntelEpiphanyCorr float64 `json:"intel_epiphany_corr"`
}

// Figure7 regenerates the paper's Fig. 7 image set into dir: (a) the
// pulse-compressed raw data, (b) the GBP image, (c) the FFBP image from
// the Intel-reference implementation, and (d) the FFBP image from the
// parallel Epiphany implementation, plus quality metrics.
func Figure7(ctx context.Context, w io.Writer, cfg report.Config, dir string) (err error) {
	res, imgs, err := RunFigure7(ctx, cfg)
	if err != nil {
		return err
	}
	if err := saveFig7(imgs, dir); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", dir)
	printFig7(w, res)
	return nil
}

func saveFig7(imgs [4]*mat.C, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := []string{"fig7a_raw.png", "fig7b_gbp.png", "fig7c_ffbp_intel.png", "fig7d_ffbp_epiphany.png"}
	for i, img := range imgs {
		if err := imageio.Save(filepath.Join(dir, names[i]), img, 50); err != nil {
			return err
		}
	}
	return nil
}

func printFig7(w io.Writer, res Fig7Result) {
	fmt.Fprintf(w, "sharpness: GBP %.1f, FFBP %.1f (GBP sharper: %v)\n",
		res.GBPSharpness, res.FFBPSharpness, res.GBPSharpness > res.FFBPSharpness)
	fmt.Fprintf(w, "GBP vs FFBP magnitude correlation: %.3f\n", res.CrossCorr)
	fmt.Fprintf(w, "Intel vs Epiphany FFBP correlation: %.3f\n", res.IntelEpiphanyCorr)
}

// RunFigure7 computes the Fig. 7 images and metrics without touching the
// filesystem. The returned images are raw data, GBP, FFBP (reference CPU
// implementation), FFBP (Epiphany implementation).
func RunFigure7(ctx context.Context, cfg report.Config) (Fig7Result, [4]*mat.C, error) {
	var out [4]*mat.C
	data := sar.Simulate(cfg.Params, cfg.Targets, nil)
	out[0] = data.Clone()

	if err := ctx.Err(); err != nil {
		return Fig7Result{}, out, err
	}
	full := geom.Aperture{Center: 0, Length: cfg.Params.ApertureLength()}
	grid := cfg.Box.GridFor(full, cfg.Params.NumPulses, cfg.Params.NumBins, cfg.Params.R0, cfg.Params.DR)
	out[1] = gbp.Image(data, cfg.Params, grid, gbp.Config{Interp: interp.Linear})

	// The host FFBP with nearest-neighbour interpolation is arithmetically
	// identical to the kernels the machine models run, so it stands in for
	// the Intel image.
	if err := ctx.Err(); err != nil {
		return Fig7Result{}, out, err
	}
	fi, _, err := ffbp.Image(data, cfg.Params, cfg.Box, ffbp.Config{Interp: interp.Nearest})
	if err != nil {
		return Fig7Result{}, out, err
	}
	out[2] = fi

	if err := ctx.Err(); err != nil {
		return Fig7Result{}, out, err
	}
	ch := emu.New(cfg.Epiphany)
	fe, _, err := kernels.ParFFBP(ch, cfg.FFBPCores, data, cfg.Params, cfg.Box)
	if err != nil {
		return Fig7Result{}, out, err
	}
	out[3] = fe

	mg := quality.Mag(out[1])
	mi := quality.Mag(out[2])
	me := quality.Mag(out[3])
	return Fig7Result{
		GBPSharpness:      quality.Sharpness(mg),
		FFBPSharpness:     quality.Sharpness(mi),
		CrossCorr:         quality.NormCorr(mg, mi),
		IntelEpiphanyCorr: quality.NormCorr(mi, me),
	}, out, nil
}

// ScalingPoint is one core-count measurement of the FFBP scaling sweep.
type ScalingPoint struct {
	Cores   int     `json:"cores"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup"` // vs 1 core of the same sweep
}

// RunScaling measures parallel FFBP execution time across core counts on
// the (possibly enlarged) Epiphany mesh — the ablation behind the paper's
// closing remark that 64-core devices are now available.
func RunScaling(ctx context.Context, cfg report.Config, coreCounts []int) ([]ScalingPoint, error) {
	data := sar.Simulate(cfg.Params, cfg.Targets, nil)
	out := make([]ScalingPoint, 0, len(coreCounts))
	var base float64
	for _, n := range coreCounts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := cfg.Epiphany
		for p.NumCores() < n {
			p = p.WithMesh(p.Rows*2, p.Cols) // grow the mesh as needed
		}
		ch := emu.New(p)
		if _, _, err := kernels.ParFFBP(ch, n, data, cfg.Params, cfg.Box); err != nil {
			return nil, err
		}
		sec := ch.Time()
		if len(out) == 0 {
			base = sec
		}
		out = append(out, ScalingPoint{Cores: n, Seconds: sec, Speedup: base / sec})
	}
	return out, nil
}

func printScaling(w io.Writer, points []ScalingPoint) {
	fmt.Fprintf(w, "%6s %12s %9s\n", "cores", "time (ms)", "speedup")
	for _, pt := range points {
		fmt.Fprintf(w, "%6d %12.1f %9.2f\n", pt.Cores, pt.Seconds*1e3, pt.Speedup)
	}
}

// BandwidthPoint is one off-chip-bandwidth measurement.
type BandwidthPoint struct {
	BytesPerCycle float64 `json:"bytes_per_cycle"`
	FFBPSeconds   float64 `json:"ffbp_seconds"`
	AFSeconds     float64 `json:"af_seconds"`
}

// RunBandwidth sweeps the effective off-chip bandwidth and measures both
// parallel implementations, demonstrating the paper's Sec. VI argument:
// the streaming autofocus pipeline is insensitive to off-chip bandwidth
// (its intermediate data never leaves the mesh), while FFBP is bound by
// it.
func RunBandwidth(ctx context.Context, cfg report.Config, factors []float64) ([]BandwidthPoint, error) {
	data := sar.Simulate(cfg.Params, cfg.Targets, nil)
	pairs := report.AutofocusWorkload(cfg)
	shifts := autofocus.RangeSweep(-1.5, 1.5, cfg.Shifts)
	out := make([]BandwidthPoint, 0, len(factors))
	for _, f := range factors {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := cfg.Epiphany
		p.ExtBytesPerCycle = cfg.Epiphany.ExtBytesPerCycle * f
		chF := emu.New(p)
		if _, _, err := kernels.ParFFBP(chF, cfg.FFBPCores, data, cfg.Params, cfg.Box); err != nil {
			return nil, err
		}
		chA := emu.New(p)
		if _, err := kernels.ParAutofocus(chA, pairs, shifts); err != nil {
			return nil, err
		}
		out = append(out, BandwidthPoint{
			BytesPerCycle: p.ExtBytesPerCycle,
			FFBPSeconds:   chF.Time(),
			AFSeconds:     chA.Time(),
		})
	}
	return out, nil
}

func printBandwidth(w io.Writer, points []BandwidthPoint) {
	fmt.Fprintf(w, "%14s %14s %14s\n", "bytes/cycle", "FFBP (ms)", "autofocus (ms)")
	for _, pt := range points {
		fmt.Fprintf(w, "%14.3f %14.1f %14.1f\n", pt.BytesPerCycle, pt.FFBPSeconds*1e3, pt.AFSeconds*1e3)
	}
}

// PipelinePoint is one autofocus pipeline-replication measurement.
type PipelinePoint struct {
	Pipelines int     `json:"pipelines"`
	Seconds   float64 `json:"seconds"`
	Speedup   float64 `json:"speedup"`
}

// RunPipelines measures the multi-pipeline autofocus throughput on the
// 64-core device: the paper's MPMD mapping replicated 1..4 times, with the
// block-pair stream split across replicas. Because the pipeline's
// intermediate data stays on-chip, throughput scales nearly linearly —
// the contrast to FFBP's bandwidth-bound scaling.
func RunPipelines(ctx context.Context, cfg report.Config, counts []int) ([]PipelinePoint, error) {
	pairs := report.AutofocusWorkload(cfg)
	shifts := autofocus.RangeSweep(-1.5, 1.5, cfg.Shifts)
	var out []PipelinePoint
	var base float64
	for _, n := range counts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ch := emu.New(emu.E64())
		if _, err := kernels.ParAutofocusMulti(ch, n, pairs, shifts); err != nil {
			return nil, err
		}
		sec := ch.Time()
		if len(out) == 0 {
			base = sec
		}
		out = append(out, PipelinePoint{Pipelines: n, Seconds: sec, Speedup: base / sec})
	}
	return out, nil
}

func printPipelines(w io.Writer, points []PipelinePoint) {
	fmt.Fprintf(w, "%10s %12s %9s\n", "pipelines", "time (ms)", "speedup")
	for _, pt := range points {
		fmt.Fprintf(w, "%10d %12.3f %9.2f\n", pt.Pipelines, pt.Seconds*1e3, pt.Speedup)
	}
}

// RunGBPvsFFBP compares the modeled times of exact GBP and FFBP on the
// reference CPU over dense data — the complexity gap that motivates the
// factorized algorithm. It returns (gbpSeconds, ffbpSeconds).
func RunGBPvsFFBP(ctx context.Context, cfg report.Config) (float64, float64, error) {
	data := sar.Simulate(cfg.Params, cfg.Targets, nil)
	sar.AddNoise(data, 0.05, 11) // dense scene: no zero-skip shortcut
	full := geom.Aperture{Center: 0, Length: cfg.Params.ApertureLength()}
	grid := cfg.Box.GridFor(full, cfg.Params.NumPulses, cfg.Params.NumBins, cfg.Params.R0, cfg.Params.DR)

	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	cpuG := refcpu.New(cfg.Intel)
	if _, err := kernels.SeqGBP(cpuG, cpuG.Mem(), data, cfg.Params, grid); err != nil {
		return 0, 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	cpuF := refcpu.New(cfg.Intel)
	if _, _, err := kernels.SeqFFBP(cpuF, cpuF.Mem(), data, cfg.Params, cfg.Box); err != nil {
		return 0, 0, err
	}
	return cpuG.Seconds(), cpuF.Seconds(), nil
}

func printGBPvsFFBP(w io.Writer, g, f float64) {
	fmt.Fprintf(w, "GBP  (exact):      %10.1f ms\n", g*1e3)
	fmt.Fprintf(w, "FFBP (factorized): %10.1f ms  -> %.1fx faster\n", f*1e3, g/f)
}

// BasePoint is one factorization-base measurement.
type BasePoint struct {
	Base      int     `json:"base"`
	Levels    int     `json:"levels"`
	Sharpness float64 `json:"sharpness"`
	GBPCorr   float64 `json:"gbp_corr"`
	HostMS    float64 `json:"host_ms"`
}

// RunBases compares factorization bases (with nearest-neighbour
// interpolation, the paper's choice): higher bases do fewer merge levels,
// so the simplified interpolation's noise accumulates less — at the price
// of more child lookups per level. cfg.Params.NumPulses must be a power
// of every base given; that is checked before any simulation runs.
func RunBases(ctx context.Context, cfg report.Config, bases []int) ([]BasePoint, error) {
	levels := make([]int, len(bases))
	for i, k := range bases {
		n := cfg.Params.NumPulses
		for k >= 2 && n > 1 && n%k == 0 {
			n /= k
			levels[i]++
		}
		if k < 2 || n != 1 {
			return nil, fmt.Errorf("bench: base %d: %d pulses is not a power of %d", k, cfg.Params.NumPulses, k)
		}
	}
	data := sar.Simulate(cfg.Params, cfg.Targets, nil)
	full := geom.Aperture{Center: 0, Length: cfg.Params.ApertureLength()}
	grid := cfg.Box.GridFor(full, cfg.Params.NumPulses, cfg.Params.NumBins, cfg.Params.R0, cfg.Params.DR)
	ref := quality.Mag(gbp.Image(data, cfg.Params, grid, gbp.Config{Interp: interp.Linear}))
	var out []BasePoint
	for i, k := range bases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		img, _, err := ffbp.ImageK(data, cfg.Params, cfg.Box, ffbp.Config{Interp: interp.Nearest}, k)
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Milliseconds())
		m := quality.Mag(img)
		out = append(out, BasePoint{
			Base: k, Levels: levels[i],
			Sharpness: quality.Sharpness(m),
			GBPCorr:   quality.NormCorr(ref, m),
			HostMS:    ms,
		})
	}
	return out, nil
}

func printBases(w io.Writer, points []BasePoint) {
	fmt.Fprintf(w, "%6s %8s %12s %10s %12s\n", "base", "levels", "sharpness", "GBP corr", "host ms")
	for _, pt := range points {
		fmt.Fprintf(w, "%6d %8d %12.1f %10.3f %12.0f\n", pt.Base, pt.Levels, pt.Sharpness, pt.GBPCorr, pt.HostMS)
	}
}

// MotivationResult carries the frequency-vs-time-domain comparison.
type MotivationResult struct {
	// Kept fractions of coherent gain under a non-linear flight path,
	// relative to each algorithm's linear-track gain.
	RDAKept         float64 `json:"rda_kept"`
	FocusedFFBPKept float64 `json:"focused_ffbp_kept"`
	MocompRDAKept   float64 `json:"mocomp_rda_kept"`
}

// RunMotivation reruns the paper's Sec. I argument: under a flight-path
// error, the straight-track-only frequency-domain processor (RDA) loses
// coherent gain it cannot recover, while the time-domain chain
// compensates — blindly (FFBP + autofocus) or exactly (known-path motion
// compensation). The experiment uses its own fixed geometry (a 256-pulse
// aperture, a cross-track step of ~lambda/10): large enough to visibly
// decorrelate the straight-track reference, still within the autofocus
// compensation window.
func RunMotivation(ctx context.Context, cfg report.Config) (MotivationResult, error) {
	p := cfg.Params
	p.NumPulses = 256
	p.NumBins = 241
	p.R0 = 500
	cfg.Box = report.DefaultBox(p)
	tg := sar.Target{U: 0, Y: p.CenterRange(), Amp: 1}
	wr, wc := rda.TargetPixel(p, tg)
	gainRDA := func(data *mat.C) (float64, error) {
		img, err := rda.Image(data, p, rda.Config{RCMC: interp.Linear})
		if err != nil {
			return 0, err
		}
		_, _, pk := quality.PeakWithin(quality.Mag(img), wr, wc, 8)
		return float64(pk), nil
	}
	gainFFBP := func(data *mat.C, focused bool) (float64, error) {
		var img *mat.C
		var grid geom.PolarGrid
		var err error
		if focused {
			img, grid, _, err = ffbp.FocusedImage(data, p, cfg.Box, ffbp.DefaultFocusConfig(p.NumPulses))
		} else {
			img, grid, err = ffbp.Image(data, p, cfg.Box, ffbp.Config{Interp: interp.Cubic})
		}
		if err != nil {
			return 0, err
		}
		fr := int(math.Round(grid.ThetaIndex(math.Atan2(tg.Y, tg.U))))
		fc := int(math.Round(grid.RangeIndex(math.Hypot(tg.U, tg.Y))))
		_, _, pk := quality.PeakWithin(quality.Mag(img), fr, fc, 8)
		return float64(pk), nil
	}

	clean := sar.Simulate(p, []sar.Target{tg}, nil)
	drift := func(u float64) float64 {
		if u > 0 {
			return 0.75
		}
		return 0
	}
	dirty := sar.Simulate(p, []sar.Target{tg}, drift)

	steps := []func() error{}
	var rdaClean, ffbpClean, rdaDirty, focDirty, mocDirty float64
	steps = append(steps,
		func() (err error) { rdaClean, err = gainRDA(clean); return },
		func() (err error) { ffbpClean, err = gainFFBP(clean, false); return },
		func() (err error) { rdaDirty, err = gainRDA(dirty); return },
		func() (err error) { focDirty, err = gainFFBP(dirty, true); return },
		func() (err error) { mocDirty, err = gainRDA(sar.MotionCompensate(dirty, p, drift)); return },
	)
	for _, step := range steps {
		if err := ctx.Err(); err != nil {
			return MotivationResult{}, err
		}
		if err := step(); err != nil {
			return MotivationResult{}, err
		}
	}
	return MotivationResult{
		RDAKept:         rdaDirty / rdaClean,
		FocusedFFBPKept: focDirty / ffbpClean,
		MocompRDAKept:   mocDirty / rdaClean,
	}, nil
}

func printMotivation(w io.Writer, r MotivationResult) {
	fmt.Fprintf(w, "coherent gain kept under a non-linear flight path:\n")
	fmt.Fprintf(w, "  RDA (straight-track reference):   %5.2f\n", r.RDAKept)
	fmt.Fprintf(w, "  FFBP + autofocus (blind):         %5.2f\n", r.FocusedFFBPKept)
	fmt.Fprintf(w, "  RDA after motion compensation:    %5.2f\n", r.MocompRDAKept)
}

// InterpPoint is one interpolation-kernel quality measurement.
type InterpPoint struct {
	Kind      interp.Kind `json:"kind"`
	Kernel    string      `json:"kernel"`
	Sharpness float64     `json:"sharpness"`
	GBPCorr   float64     `json:"gbp_corr"`
}

// RunInterp measures FFBP image quality against the GBP reference for
// each interpolation kernel — quantifying the paper's note that FFBP
// quality "could be considerably improved by using more complex
// interpolation kernels such as cubic interpolation".
func RunInterp(ctx context.Context, cfg report.Config) ([]InterpPoint, error) {
	data := sar.Simulate(cfg.Params, cfg.Targets, nil)
	full := geom.Aperture{Center: 0, Length: cfg.Params.ApertureLength()}
	grid := cfg.Box.GridFor(full, cfg.Params.NumPulses, cfg.Params.NumBins, cfg.Params.R0, cfg.Params.DR)
	ref := quality.Mag(gbp.Image(data, cfg.Params, grid, gbp.Config{Interp: interp.Linear}))
	var out []InterpPoint
	for _, k := range []interp.Kind{interp.Nearest, interp.Linear, interp.Cubic, interp.Sinc8} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		img, _, err := ffbp.Image(data, cfg.Params, cfg.Box, ffbp.Config{Interp: k})
		if err != nil {
			return nil, err
		}
		m := quality.Mag(img)
		out = append(out, InterpPoint{
			Kind:      k,
			Kernel:    k.String(),
			Sharpness: quality.Sharpness(m),
			GBPCorr:   quality.NormCorr(ref, m),
		})
	}
	return out, nil
}

// UpsamplePoint is one range-oversampling measurement.
type UpsamplePoint struct {
	Factor    int     `json:"factor"`
	Sharpness float64 `json:"sharpness"`
	PeakGain  float64 `json:"peak_gain"` // image peak relative to factor 1
}

// RunUpsample measures nearest-neighbour FFBP quality against the range
// oversampling factor — the standard countermeasure (used by the related
// Lidberg et al. implementation) to the interpolation noise the paper
// discusses, bought with proportionally more memory and bandwidth.
func RunUpsample(ctx context.Context, cfg report.Config, factors []int) ([]UpsamplePoint, error) {
	data := sar.Simulate(cfg.Params, cfg.Targets, nil)
	var out []UpsamplePoint
	var base float64
	for _, f := range factors {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		up, q, err := sar.UpsampleRange(data, cfg.Params, f)
		if err != nil {
			return nil, err
		}
		img, _, err := ffbp.Image(up, q, cfg.Box, ffbp.Config{Interp: interp.Nearest})
		if err != nil {
			return nil, err
		}
		m := quality.Mag(img)
		_, _, pk := quality.Peak(m)
		if len(out) == 0 {
			base = float64(pk)
		}
		out = append(out, UpsamplePoint{
			Factor:    f,
			Sharpness: quality.Sharpness(m),
			PeakGain:  float64(pk) / base,
		})
	}
	return out, nil
}

func printUpsample(w io.Writer, points []UpsamplePoint) {
	fmt.Fprintf(w, "%8s %12s %12s\n", "factor", "sharpness", "peak gain")
	for _, pt := range points {
		fmt.Fprintf(w, "%8d %12.1f %12.2f\n", pt.Factor, pt.Sharpness, pt.PeakGain)
	}
}

func printInterp(w io.Writer, points []InterpPoint) {
	fmt.Fprintf(w, "%10s %12s %12s\n", "kernel", "sharpness", "GBP corr")
	for _, pt := range points {
		fmt.Fprintf(w, "%10s %12.1f %12.3f\n", pt.Kind, pt.Sharpness, pt.GBPCorr)
	}
}
