// Package report reproduces the paper's Table I (resources, performance
// and estimated power of the FFBP and autofocus criterion
// implementations) and the energy-efficiency ratios of Sec. VI-A, and
// holds the workload configurations the other experiments share.
//
// Table I's six implementations are named once, in Impls: each row's
// -kernel name, label, case study and machine kind, with Impl.Run binding
// it to its kernel call. RunTable1, cmd/epirun and the root
// BenchmarkTable1 all read that table.
package report

import (
	"context"
	"fmt"
	"math"
	"strings"

	"sarmany/internal/autofocus"
	"sarmany/internal/emu"
	"sarmany/internal/energy"
	"sarmany/internal/geom"
	"sarmany/internal/kernels"
	"sarmany/internal/machine"
	"sarmany/internal/mat"
	"sarmany/internal/obs"
	"sarmany/internal/refcpu"
	"sarmany/internal/sar"
)

// Config selects the workload scale and the machine parameters for a
// Table I run.
type Config struct {
	Params  sar.Params
	Box     geom.SceneBox
	Targets []sar.Target

	// Autofocus workload: Pairs block pairs, each evaluated under Shifts
	// candidate flight-path compensations.
	Pairs, Shifts int

	Epiphany emu.Params
	Intel    refcpu.Params
	// FFBPCores is the core count of the parallel FFBP run (16 in the
	// paper); the autofocus pipeline always uses 13 cores.
	FFBPCores int
}

// DefaultBox returns the scene box used for imaging with parameters p:
// the central part of the swath, wide enough for the six-target scene.
func DefaultBox(p sar.Params) geom.SceneBox {
	span := float64(p.NumBins-1) * p.DR
	return geom.SceneBox{
		UMin: -0.15 * p.ApertureLength(), UMax: 0.15 * p.ApertureLength(),
		YMin:     p.R0 + 0.2*span,
		YMax:     p.R0 + 0.8*span,
		ThetaPad: 0.05,
	}
}

// Default returns the paper-scale configuration: 1024 pulses x 1001 range
// bins (ten merge iterations to a 1024x1001-pixel image), the six-target
// validation scene, and an autofocus stream of 64 block pairs x 32
// candidate compensations.
func Default() Config {
	p := sar.DefaultParams()
	return Config{
		Params:    p,
		Box:       DefaultBox(p),
		Targets:   sar.SixTargetScene(p),
		Pairs:     64,
		Shifts:    32,
		Epiphany:  emu.E16G3(),
		Intel:     refcpu.I7M620(),
		FFBPCores: 16,
	}
}

// Small returns a reduced configuration for tests: the same structure at
// 1/16 the image size.
func Small() Config {
	c := Default()
	c.Params.NumPulses = 128
	c.Params.NumBins = 251
	c.Params.R0 = 1000
	c.Box = DefaultBox(c.Params)
	c.Targets = []sar.Target{
		{U: -15, Y: c.Params.CenterRange() - 20, Amp: 1},
		{U: 15, Y: c.Params.CenterRange() + 20, Amp: 1},
	}
	c.Pairs = 8
	c.Shifts = 8
	return c
}

// Row is one implementation line of Table I.
type Row struct {
	Impl    string  `json:"impl"`
	Cores   int     `json:"cores"`
	Seconds float64 `json:"seconds"`
	// PixPerSec is the throughput in processed pixels per second (the
	// paper reports it for the autofocus case study).
	PixPerSec float64 `json:"pix_per_s"`
	// Speedup is relative to the sequential Intel implementation.
	Speedup float64 `json:"speedup"`
	// PowerW is the estimated power from datasheet figures.
	PowerW float64 `json:"power_w"`
}

// Estimate converts the row to an energy estimate over its workload.
func (r Row) Estimate() energy.Estimate {
	return energy.Estimate{Seconds: r.Seconds, Watts: r.PowerW, WorkUnits: r.PixPerSec * r.Seconds}
}

// Table1 holds the reproduced paper Table I plus the derived energy
// ratios and metric snapshots of the parallel Epiphany runs.
type Table1 struct {
	FFBP      [3]Row `json:"ffbp"` // seq Intel, seq Epiphany, parallel Epiphany
	Autofocus [3]Row `json:"autofocus"`
	// FFBPEnergyRatio and AutofocusEnergyRatio are the Sec. VI-A
	// throughput-per-watt ratios of the parallel Epiphany implementations
	// over sequential Intel (paper: 38x and 78x).
	FFBPEnergyRatio      float64 `json:"ffbp_energy_ratio"`
	AutofocusEnergyRatio float64 `json:"autofocus_energy_ratio"`
	// FFBPMetrics and AutofocusMetrics snapshot the chip metrics registry
	// of the two parallel Epiphany runs (ops, traffic, stall causes,
	// phase classification, link occupancy).
	FFBPMetrics      obs.Snapshot `json:"ffbp_metrics,omitempty"`
	AutofocusMetrics obs.Snapshot `json:"autofocus_metrics,omitempty"`
}

// Study is a case study of Table I.
type Study int

const (
	FFBP      Study = iota // image formation by fast factorized back-projection
	Autofocus              // the autofocus criterion calculation
)

// Kind is the kind of machine a Table I implementation runs on; it is
// the row's index in Table1.FFBP and Table1.Autofocus.
type Kind int

const (
	Intel        Kind = iota // sequentially on the Intel i7 model
	EpiphanyCore             // sequentially on Epiphany core 0, data in external memory
	EpiphanyChip             // mapped onto the Epiphany chip
)

// Impl is one implementation of Table I: a case study on a machine.
type Impl struct {
	Kernel string // the -kernel name of cmd/epirun
	Label  string // the row label in Table I
	Study  Study
	Kind   Kind
}

var impls = [6]Impl{
	{"ffbp-intel", "Sequential on Intel i7", FFBP, Intel},
	{"ffbp-seq", "Sequential on Epiphany", FFBP, EpiphanyCore},
	{"ffbp-par", "Parallel on Epiphany", FFBP, EpiphanyChip},
	{"af-intel", "Sequential on Intel i7", Autofocus, Intel},
	{"af-seq", "Sequential on Epiphany", Autofocus, EpiphanyCore},
	{"af-par", "Parallel on Epiphany", Autofocus, EpiphanyChip},
}

// Impls returns a copy of Table I's six implementations in its row
// order: FFBP, then autofocus, each sequential on Intel, sequential on
// one Epiphany core and parallel on the chip.
func Impls() [6]Impl { return impls }

// Lookup returns the implementation whose Kernel is name.
func Lookup(name string) (Impl, bool) {
	for _, im := range impls {
		if im.Kernel == name {
			return im, true
		}
	}
	return Impl{}, false
}

// Machine is the model an implementation runs on: CPU for the Intel
// rows, Chip for the Epiphany rows.
type Machine struct {
	CPU  *refcpu.CPU
	Chip *emu.Chip
}

// NewMachine builds a fresh model of the machine im runs on. Callers may
// attach tracers, fault plans or progress cells before Run.
func (im Impl) NewMachine(cfg Config) Machine {
	if im.Kind == Intel {
		return Machine{CPU: refcpu.New(cfg.Intel)}
	}
	return Machine{Chip: emu.New(cfg.Epiphany)}
}

// Seconds returns the modeled time of what ran on m. A sequential
// Epiphany run reads core 0's cycles over the clock, since no other core
// ran.
func (m Machine) Seconds() float64 {
	if m.CPU != nil {
		return m.CPU.Seconds()
	}
	return m.Chip.Time()
}

// Inputs are the inputs the rows of Table I share.
type Inputs struct {
	Data   *mat.C              // pulse-compressed radar data, the FFBP input
	Pairs  []kernels.BlockPair // the autofocus block-pair stream
	Shifts []autofocus.Shift   // candidate compensations tried on every pair
}

// NewInputs synthesizes cfg's inputs: the radar data of cfg.Targets and
// cfg.Pairs block pairs under cfg.Shifts shifts.
func NewInputs(cfg Config) *Inputs {
	return &Inputs{
		Data:   sar.Simulate(cfg.Params, cfg.Targets, nil),
		Pairs:  AutofocusWorkload(cfg),
		Shifts: autofocus.RangeSweep(-1.5, 1.5, cfg.Shifts),
	}
}

// Pixels returns the pixels one run of study s processes: the FFBP
// image, or every autofocus pair under every shift.
func (in *Inputs) Pixels(s Study) float64 {
	if s == FFBP {
		return float64(in.Data.Rows * in.Data.Cols)
	}
	return float64(len(in.Pairs) * len(in.Shifts) * autofocus.PixelsProcessed())
}

// Run runs im on m, built by im.NewMachine, and returns the number of
// cores it used. Parallel FFBP maps onto cfg.FFBPCores cores, or onto
// every core of the chip when that is 0.
func (im Impl) Run(m Machine, cfg Config, in *Inputs) (int, error) {
	if im.Kind == EpiphanyChip {
		if im.Study == FFBP {
			n := cfg.FFBPCores
			if n == 0 {
				n = len(m.Chip.Cores)
			}
			_, _, err := kernels.ParFFBP(m.Chip, n, in.Data, cfg.Params, cfg.Box)
			return n, err
		}
		_, err := kernels.ParAutofocus(m.Chip, in.Pairs, in.Shifts)
		return kernels.PipelineCores, err
	}
	var (
		core machine.Machine
		mem  machine.Alloc
		err  error
	)
	if im.Kind == Intel {
		core, mem = m.CPU, m.CPU.Mem()
	} else {
		core, mem = m.Chip.Cores[0], m.Chip.Ext()
	}
	if im.Study == FFBP {
		_, _, err = kernels.SeqFFBP(core, mem, in.Data, cfg.Params, cfg.Box)
	} else {
		_, err = kernels.SeqAutofocus(core, mem, in.Pairs, in.Shifts)
	}
	return 1, err
}

// RunTable1 executes all six implementations of Table I on freshly
// constructed machine models and returns the measured table. The context
// is checked between the six machine runs: cancellation (or a deadline
// set by a sweep-engine timeout) stops the experiment at the next
// simulation boundary.
func RunTable1(ctx context.Context, cfg Config) (*Table1, error) {
	return runTable1(ctx, cfg, func(Impl, Machine) {})
}

// runTable1 is RunTable1, calling ran with each row's machine.
func runTable1(ctx context.Context, cfg Config, ran func(Impl, Machine)) (*Table1, error) {
	in := NewInputs(cfg)
	var t Table1
	rows := [2]*[3]Row{&t.FFBP, &t.Autofocus}
	snaps := [2]*obs.Snapshot{&t.FFBPMetrics, &t.AutofocusMetrics}
	for _, im := range impls {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := im.NewMachine(cfg)
		cores, err := im.Run(m, cfg, in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", im.Kernel, err)
		}
		ran(im, m)
		sec, power := m.Seconds(), cfg.Epiphany.MaxPowerWatts
		if im.Kind == Intel {
			power = cfg.Intel.SingleCorePowerWatts
		}
		rows[im.Study][im.Kind] = Row{Impl: im.Label, Cores: cores,
			Seconds: sec, PixPerSec: in.Pixels(im.Study) / sec, PowerW: power}
		if im.Kind == EpiphanyChip {
			*snaps[im.Study] = m.Chip.Metrics().Snapshot()
		}
	}

	// Speedups relative to sequential Intel.
	for i := range t.FFBP {
		t.FFBP[i].Speedup = t.FFBP[0].Seconds / t.FFBP[i].Seconds
	}
	for i := range t.Autofocus {
		t.Autofocus[i].Speedup = t.Autofocus[i].PixPerSec / t.Autofocus[0].PixPerSec
	}

	t.FFBPEnergyRatio = energy.EfficiencyRatio(t.FFBP[2].Estimate(), t.FFBP[0].Estimate())
	t.AutofocusEnergyRatio = energy.EfficiencyRatio(t.Autofocus[2].Estimate(), t.Autofocus[0].Estimate())
	return &t, nil
}

// AutofocusWorkload synthesizes cfg.Pairs block pairs with smooth,
// slightly displaced content, the input stream of the autofocus criterion
// implementations.
func AutofocusWorkload(cfg Config) []kernels.BlockPair {
	out := make([]kernels.BlockPair, cfg.Pairs)
	for i := range out {
		shift := 0.7 * math.Sin(float64(i))
		var m, p autofocus.Block
		for r := 0; r < autofocus.BlockSize; r++ {
			for c := 0; c < autofocus.BlockSize; c++ {
				dr := float64(r) - 2.5
				dc := float64(c) - 2.5
				a := float32(math.Exp(-(dr*dr + dc*dc) / 2.5))
				m[r][c] = complex(a, a/3)
				dcs := dc - shift
				b := float32(math.Exp(-(dr*dr + dcs*dcs) / 2.5))
				p[r][c] = complex(b, -b/4)
			}
		}
		out[i] = kernels.BlockPair{Minus: m, Plus: p}
	}
	return out
}

// String formats the table in the layout of the paper's Table I.
func (t *Table1) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s %12s %14s %9s %7s\n", "FFBP Implementations", "Cores", "Time (ms)", "Pixels/s", "Speedup", "Power")
	for _, r := range t.FFBP {
		fmt.Fprintf(&b, "%-28s %6d %12.1f %14.0f %9.2f %6.1fW\n",
			r.Impl, r.Cores, r.Seconds*1e3, r.PixPerSec, r.Speedup, r.PowerW)
	}
	fmt.Fprintf(&b, "%-28s %6s %12s %14s %9s %7s\n", "Autofocus Implementations", "Cores", "Time (ms)", "Pixels/s", "Speedup", "Power")
	for _, r := range t.Autofocus {
		fmt.Fprintf(&b, "%-28s %6d %12.1f %14.0f %9.2f %6.1fW\n",
			r.Impl, r.Cores, r.Seconds*1e3, r.PixPerSec, r.Speedup, r.PowerW)
	}
	fmt.Fprintf(&b, "Energy efficiency (throughput/W) vs sequential Intel: FFBP %.1fx, Autofocus %.1fx\n",
		t.FFBPEnergyRatio, t.AutofocusEnergyRatio)
	return b.String()
}
