package bench

import (
	"context"
	"fmt"
	"io"

	"sarmany/internal/autofocus"
	"sarmany/internal/conform"
	"sarmany/internal/emu"
	"sarmany/internal/energy"
	"sarmany/internal/geom"
	"sarmany/internal/kernels"
	"sarmany/internal/mat"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// ScalePoint is one topology measurement of the manycore scale-up sweep:
// both parallel kernels on one device generation, with modeled time,
// energy and a conformance verdict.
type ScalePoint struct {
	Cores int `json:"cores"`
	Chips int `json:"chips"`
	// Mesh names the core grid, e.g. "8x8" or "2x2 chips of 16x16".
	Mesh string `json:"mesh"`
	// FFBP: the SPMD kernel on all cores. Seconds and EnergyJ are modeled
	// simulator output and gate in benchdiff; Speedup is relative to the
	// sweep's first (64-core) point.
	FFBPSeconds float64 `json:"ffbp_seconds"`
	FFBPSpeedup float64 `json:"ffbp_speedup"`
	FFBPEnergyJ float64 `json:"ffbp_energy_j"`
	// Autofocus: the MPMD pipeline replicated Pipelines times
	// (floor(cores/13), every replica fully on live cores).
	Pipelines int     `json:"pipelines"`
	AFSeconds float64 `json:"af_seconds"`
	AFSpeedup float64 `json:"af_speedup"`
	AFEnergyJ float64 `json:"af_energy_j"`
	// ConformOK reports that both runs passed the simulator conformance
	// checker on this topology. Deterministic: it gates.
	ConformOK bool `json:"conform_ok"`
}

// scaleWorkload is the fixed input both kernels process at every sweep
// point, so the committed envelope is invariant to -small.
type scaleWorkload struct {
	p      sar.Params
	box    geom.SceneBox
	data   *mat.C
	pairs  []kernels.BlockPair
	shifts []autofocus.Shift
}

// scaleTopo is one device generation of the sweep.
type scaleTopo struct {
	p     emu.Params
	cores int
}

// scaleTopos lists the sweep's device generations: the 64-core chip the
// paper's conclusions mention, a 256-core single-chip scale-up, and a
// 1024-core 2x2 eLink-bridged array with per-chip SDRAM channels.
func scaleTopos() []scaleTopo {
	return []scaleTopo{
		{emu.E64(), 64},
		{emu.E256(), 256},
		{emu.E1024(), 1024},
	}
}

// The sweep's pinned input scale: the paper's 1024 pulses at a reduced
// 251-bin swath (the sweep times three devices, so it trades range width
// for wall-clock). Pinned — rather than taken from the configuration —
// so the committed baseline is comparable across -small and full runs;
// the envelope records these, not the config's scale.
const (
	scalePulses = 1024
	scaleBins   = 251
)

// defaultScaleWorkload builds the sweep's fixed input: the pinned
// pulse/bin scale above, and an autofocus stream of four block pairs per
// pipeline of the largest device, so every replica of every generation
// has work.
func defaultScaleWorkload(cfg report.Config) scaleWorkload {
	p := cfg.Params
	p.NumPulses = scalePulses
	p.NumBins = scaleBins
	p.R0 = 1000
	box := report.DefaultBox(p)
	targets := []sar.Target{
		{U: -15, Y: p.CenterRange() - 20, Amp: 1},
		{U: 15, Y: p.CenterRange() + 20, Amp: 1},
	}
	afCfg := cfg
	afCfg.Pairs = 4 * (1024 / kernels.PipelineCores)
	return scaleWorkload{
		p:      p,
		box:    box,
		data:   sar.Simulate(p, targets, nil),
		pairs:  report.AutofocusWorkload(afCfg),
		shifts: autofocus.RangeSweep(-1.5, 1.5, 16),
	}
}

// meshName renders the core-grid shape of a topology.
func meshName(p emu.Params) string {
	if p.NumChips() > 1 {
		return fmt.Sprintf("%dx%d chips of %dx%d", p.GridRows()/p.Rows, p.GridCols()/p.Cols, p.Rows, p.Cols)
	}
	return fmt.Sprintf("%dx%d", p.Rows, p.Cols)
}

// runScale executes the sweep over explicit workload and topologies —
// the seam the cheap shape test uses with a reduced workload.
func runScale(ctx context.Context, wl scaleWorkload, topos []scaleTopo) ([]ScalePoint, error) {
	out := make([]ScalePoint, 0, len(topos))
	var ffbpBase, afBase float64
	for _, tp := range topos {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chF := emu.New(tp.p)
		if _, _, err := kernels.ParFFBP(chF, tp.cores, wl.data, wl.p, wl.box); err != nil {
			return nil, fmt.Errorf("bench: scale ffbp on %s: %w", meshName(tp.p), err)
		}
		ffbpSec := chF.Time()

		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pipes := tp.cores / kernels.PipelineCores
		chA := emu.New(tp.p)
		if _, err := kernels.ParAutofocusMulti(chA, pipes, wl.pairs, wl.shifts); err != nil {
			return nil, fmt.Errorf("bench: scale autofocus on %s: %w", meshName(tp.p), err)
		}
		afSec := chA.Time()

		if len(out) == 0 {
			ffbpBase, afBase = ffbpSec, afSec
		}
		out = append(out, ScalePoint{
			Cores:       tp.cores,
			Chips:       tp.p.NumChips(),
			Mesh:        meshName(tp.p),
			FFBPSeconds: ffbpSec,
			FFBPSpeedup: ffbpBase / ffbpSec,
			FFBPEnergyJ: energy.EpiphanyBreakdown(chF.TotalStats(), ffbpSec).Total(),
			Pipelines:   pipes,
			AFSeconds:   afSec,
			AFSpeedup:   afBase / afSec,
			AFEnergyJ:   energy.EpiphanyBreakdown(chA.TotalStats(), afSec).Total(),
			ConformOK:   conform.CheckAll(chF).OK() && conform.CheckAll(chA).OK(),
		})
	}
	return out, nil
}

// RunScale measures both parallel kernels across device generations —
// 64, 256 and 1024 cores, the last a 2x2 eLink-bridged chip array — on a
// fixed workload. It quantifies the architecture-scaling story: FFBP's
// speedup tracks the aggregate SDRAM bandwidth (the 1024-core array
// brings four channels, not sixteen more cores' worth), while the
// on-chip autofocus pipelines scale with replica count until the input
// stream saturates the channels.
func RunScale(ctx context.Context, cfg report.Config) ([]ScalePoint, error) {
	return runScale(ctx, defaultScaleWorkload(cfg), scaleTopos())
}

func printScale(w io.Writer, points []ScalePoint) {
	fmt.Fprintf(w, "%6s %6s %22s %11s %8s %9s %6s %11s %8s %9s %8s\n",
		"cores", "chips", "mesh", "ffbp (ms)", "speedup", "J", "pipes", "af (ms)", "speedup", "J", "conform")
	for _, pt := range points {
		fmt.Fprintf(w, "%6d %6d %22s %11.1f %7.2fx %9.3f %6d %11.3f %7.2fx %9.4f %8v\n",
			pt.Cores, pt.Chips, pt.Mesh, pt.FFBPSeconds*1e3, pt.FFBPSpeedup, pt.FFBPEnergyJ,
			pt.Pipelines, pt.AFSeconds*1e3, pt.AFSpeedup, pt.AFEnergyJ, pt.ConformOK)
	}
}
