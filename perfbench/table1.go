package main

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"sarmany/internal/autofocus"
	"sarmany/internal/emu"
	"sarmany/internal/energy"
	"sarmany/internal/ffbp"
	"sarmany/internal/interp"
	"sarmany/internal/kernels"
	"sarmany/internal/mat"
	"sarmany/internal/obs"
	"sarmany/internal/refcpu"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// table1Rows names the six implementations of the paper's Table I, in
// its order.
var table1Rows = [6]string{"ffbp_seq_intel", "ffbp_seq_epi", "ffbp_par_epi", "af_seq_intel", "af_seq_epi", "af_par_epi"}

// table1Values are the modeled outputs of one Table I: each row's
// modeled seconds and the two Sec. VI-A energy ratios.
type table1Values struct {
	Seconds            [6]float64
	FFBPRatio, AFRatio float64
}

// table1Input is table1-paper's set-up: the paper's configuration, its
// pulse-compressed data and the references each row is checked against.
type table1Input struct {
	cfg     report.Config
	data    *mat.C
	hostImg *mat.C // ffbp.Image, Nearest, one worker
	pairs   []kernels.BlockPair
	shifts  []autofocus.Shift
	scores  [][]float64 // autofocus.Criterion of every pair and shift
	want    table1Values
	wantOps []float64 // charged operations per row (nil: the first table sets them)
}

// table1Config is the paper's configuration, or report.Small for tests.
func table1Config(tiny bool) report.Config {
	if tiny {
		return report.Small()
	}
	return report.Default()
}

func table1Setup(cfg config) (*table1Input, error) {
	c := table1Config(cfg.tiny)
	in := &table1Input{cfg: c}
	ch := c.Params.DefaultChirp()
	var raw *mat.C
	cfg.tr.timed("sar.simulate_raw", -1, -1, func() { raw = sar.SimulateRaw(c.Params, ch, c.Targets, nil) })
	cfg.tr.timed("sar.compress", -1, -1, func() { in.data = sar.Compress(c.Params, ch, raw) })
	var err error
	cfg.tr.timed("ffbp.image_1w", -1, -1, func() {
		in.hostImg, _, err = ffbp.Image(in.data, c.Params, c.Box, ffbp.Config{Interp: interp.Nearest, Workers: 1})
	})
	if err != nil {
		return nil, err
	}
	in.pairs = report.AutofocusWorkload(c)
	in.shifts = autofocus.RangeSweep(-1.5, 1.5, c.Shifts)
	in.scores = criterionScores(in.pairs, in.shifts)
	if cfg.tiny {
		t, err := report.RunTable1(context.Background(), c)
		if err != nil {
			return nil, err
		}
		in.want = table1Values{FFBPRatio: t.FFBPEnergyRatio, AFRatio: t.AutofocusEnergyRatio}
		for r := 0; r < 3; r++ {
			in.want.Seconds[r] = t.FFBP[r].Seconds
			in.want.Seconds[3+r] = t.Autofocus[r].Seconds
		}
	} else {
		in.want, in.wantOps = paperTable1, paperTable1Ops[:]
	}
	return in, nil
}

// criterionScores evaluates autofocus.Criterion for every pair and
// shift: the reference every simulated autofocus run must reproduce.
func criterionScores(pairs []kernels.BlockPair, shifts []autofocus.Shift) [][]float64 {
	out := make([][]float64, len(pairs))
	for i := range pairs {
		out[i] = make([]float64, len(shifts))
		for j, s := range shifts {
			out[i][j] = autofocus.Criterion(&pairs[i].Minus, &pairs[i].Plus, s)
		}
	}
	return out
}

// rowResult is one Table I row's modeled output.
type rowResult struct {
	seconds float64
	cycles  float64
	metrics *obs.Registry
	img     *mat.C
	scores  [][]float64
}

// runRow runs Table I row r on a fresh machine, as report.RunTable1
// does, and returns its modeled seconds and the machine's counters.
func runRow(in *table1Input, r int) (rowResult, error) {
	c := in.cfg
	var res rowResult
	var err error
	switch r {
	case 0:
		cpu := refcpu.New(c.Intel)
		res.img, _, err = kernels.SeqFFBP(cpu, cpu.Mem(), in.data, c.Params, c.Box)
		res.seconds, res.cycles, res.metrics = cpu.Seconds(), cpu.Cycles(), cpu.Metrics()
	case 1:
		ch := emu.New(c.Epiphany)
		res.img, _, err = kernels.SeqFFBP(ch.Cores[0], ch.Ext(), in.data, c.Params, c.Box)
		res.seconds, res.cycles, res.metrics = ch.Cores[0].Cycles()/c.Epiphany.Clock, ch.Cores[0].Cycles(), ch.Metrics()
	case 2:
		ch := emu.New(c.Epiphany)
		res.img, _, err = kernels.ParFFBP(ch, c.FFBPCores, in.data, c.Params, c.Box)
		res.seconds, res.cycles, res.metrics = ch.Time(), ch.MaxCycles(), ch.Metrics()
	case 3:
		cpu := refcpu.New(c.Intel)
		res.scores, err = kernels.SeqAutofocus(cpu, cpu.Mem(), in.pairs, in.shifts)
		res.seconds, res.cycles, res.metrics = cpu.Seconds(), cpu.Cycles(), cpu.Metrics()
	case 4:
		ch := emu.New(c.Epiphany)
		res.scores, err = kernels.SeqAutofocus(ch.Cores[0], ch.Ext(), in.pairs, in.shifts)
		res.seconds, res.cycles, res.metrics = ch.Cores[0].Cycles()/c.Epiphany.Clock, ch.Cores[0].Cycles(), ch.Metrics()
	case 5:
		ch := emu.New(c.Epiphany)
		res.scores, err = kernels.ParAutofocus(ch, in.pairs, in.shifts)
		res.seconds, res.cycles, res.metrics = ch.Time(), ch.MaxCycles(), ch.Metrics()
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", table1Rows[r], err)
	}
	return res, nil
}

// energyRatios derives the Sec. VI-A throughput-per-watt ratios from the
// rows' modeled seconds exactly as report.RunTable1 does.
func energyRatios(c report.Config, sec [6]float64, afPixels float64) (ffbpR, afR float64) {
	imgPixels := float64(c.Params.NumPulses * c.Params.NumBins)
	est := func(s, pixels, watts float64) energy.Estimate {
		return report.Row{Seconds: s, PixPerSec: pixels / s, PowerW: watts}.Estimate()
	}
	ffbpR = energy.EfficiencyRatio(est(sec[2], imgPixels, c.Epiphany.MaxPowerWatts),
		est(sec[0], imgPixels, c.Intel.SingleCorePowerWatts))
	afR = energy.EfficiencyRatio(est(sec[5], afPixels, c.Epiphany.MaxPowerWatts),
		est(sec[3], afPixels, c.Intel.SingleCorePowerWatts))
	return ffbpR, afR
}

// chargedOps sums a machine's published operation and memory-access
// counters: emu.ops.* and the emu.mem.* access counts (not the byte
// counts), or cpu.ops.* plus cpu.mem.loads and cpu.mem.stores.
func chargedOps(s obs.Snapshot) float64 {
	var n float64
	for _, m := range s {
		switch {
		case strings.HasPrefix(m.Name, "emu.ops."), strings.HasPrefix(m.Name, "cpu.ops."),
			m.Name == "cpu.mem.loads", m.Name == "cpu.mem.stores",
			strings.HasPrefix(m.Name, "emu.mem.") && !strings.HasSuffix(m.Name, "_bytes"):
			n += m.Value
		}
	}
	return n
}

// checkTable1 compares one table's rows with the references.
func checkTable1(in *table1Input, rows *[6]rowResult, ops []float64) error {
	var got table1Values
	for r := range rows {
		got.Seconds[r] = rows[r].seconds
	}
	afPixels := float64(len(in.pairs) * len(in.shifts) * autofocus.PixelsProcessed())
	got.FFBPRatio, got.AFRatio = energyRatios(in.cfg, got.Seconds, afPixels)
	if got != in.want {
		return fmt.Errorf("modeled Table I %+v, want %+v", got, in.want)
	}
	for r := 0; r < 3; r++ {
		if !rows[r].img.Equal(in.hostImg) {
			return fmt.Errorf("%s image differs from ffbp.Image", table1Rows[r])
		}
	}
	for r := 3; r < 6; r++ {
		for i := range in.scores {
			if !slices.Equal(rows[r].scores[i], in.scores[i]) {
				return fmt.Errorf("%s scores of pair %d differ from autofocus.Criterion", table1Rows[r], i)
			}
		}
	}
	if !slices.Equal(ops, in.wantOps) {
		return fmt.Errorf("charged operations %v, want %v", ops, in.wantOps)
	}
	return nil
}

var table1Workload = workload{
	name:   "table1-paper",
	opSpan: "table1",
	layers: table1Layers(),
	run:    runTable1,
}

func table1Layers() []layerMetric {
	var out []layerMetric
	for _, r := range table1Rows {
		out = append(out, layerMetric{"kernels." + r + "_s", "s"}, layerMetric{"kernels." + r + ".ns_per_op", "ns"},
			layerMetric{"kernels." + r + ".charged_ops", "count"})
		if strings.HasSuffix(r, "intel") {
			out = append(out, layerMetric{"refcpu." + r + ".cycles", "cycles"})
		} else {
			out = append(out, layerMetric{"emu." + r + ".cycles", "cycles"})
		}
	}
	out = append(out, layerMetric{"machine.charge_ratio", "ratio"})
	for _, k := range emuOpKinds {
		out = append(out, layerMetric{"emu.ffbp_par_epi.ops." + k, "count"})
	}
	out = append(out, layerMetric{"emu.ffbp_par_epi.mem.ext_read_bytes", "bytes"})
	for _, k := range emuStallKinds {
		out = append(out, layerMetric{"emu.ffbp_par_epi.cycles.stall." + k, "cycles"})
	}
	for _, k := range cacheLevels {
		out = append(out, layerMetric{"refcpu.ffbp_seq_intel.mem.served." + k, "count"})
	}
	return append(out, layerMetric{"report.ffbp_energy_ratio", "ratio"}, layerMetric{"report.af_energy_ratio", "ratio"})
}

var (
	emuOpKinds    = []string{"fma", "flop", "iop", "div", "sqrt", "trig"}
	emuStallKinds = []string{"ext", "dma", "barrier"} // the causes parallel FFBP stalls on
	cacheLevels   = []string{"l1", "l2", "l3", "dram"}
)

// runTable1 is table1-paper: all six rows of Table I per operation, on
// fresh machines. Scene synthesis, pulse compression and the references
// are set-up. The seed is ignored: the paper fixes this input.
func runTable1(cfg config) (*outcome, error) {
	o := &outcome{}
	in, err := setup(cfg, o, func() (*table1Input, error) { return table1Setup(cfg) })
	if err != nil {
		return nil, err
	}
	tr := cfg.tr
	var last [6]rowResult
	measure(cfg, o, func(i int) (float64, float64, error) {
		var rows [6]rowResult
		var errs [6]error
		w := startWatch()
		op := tr.begin("table1", -1, i)
		for r := range rows {
			tr.timed("kernels."+table1Rows[r], op, i, func() { rows[r], errs[r] = runRow(in, r) })
		}
		tr.end(op)
		sec, allocB := w.stop()
		for _, err := range errs {
			if err != nil {
				return sec, allocB, err
			}
		}
		ops := make([]float64, 6)
		for r := range rows {
			ops[r] = chargedOps(rows[r].metrics.Snapshot())
			o.work += ops[r]
		}
		if in.wantOps == nil {
			in.wantOps = ops
		}
		last = rows
		return sec, allocB, checkTable1(in, &rows, ops)
	})
	if tr != nil {
		if last[0].metrics == nil {
			return nil, fmt.Errorf("no table completed")
		}
		o.layers = table1LayerValues(tr, in, &last)
	}
	return o, nil
}

// table1LayerValues derives table1-paper's per-layer metrics from the
// traced run's spans and the last table's counters.
func table1LayerValues(tr *tracer, in *table1Input, rows *[6]rowResult) map[string]float64 {
	m := map[string]float64{}
	for r, name := range table1Rows {
		s := median(tr.durations("kernels." + name))
		snap := rows[r].metrics.Snapshot()
		ops := chargedOps(snap)
		m["kernels."+name+"_s"] = s
		m["kernels."+name+".ns_per_op"] = s * 1e9 / ops
		m["kernels."+name+".charged_ops"] = ops
		if r == 0 || r == 3 {
			m["refcpu."+name+".cycles"] = rows[r].cycles
		} else {
			m["emu."+name+".cycles"] = rows[r].cycles
		}
	}
	m["machine.charge_ratio"] = m["kernels.ffbp_seq_epi_s"] / median(tr.durations("ffbp.image_1w"))
	par := rows[2].metrics.Snapshot()
	for _, k := range emuOpKinds {
		m["emu.ffbp_par_epi.ops."+k] = par.Value("emu.ops." + k)
	}
	m["emu.ffbp_par_epi.mem.ext_read_bytes"] = par.Value("emu.mem.ext_read_bytes")
	for _, k := range emuStallKinds {
		m["emu.ffbp_par_epi.cycles.stall."+k] = par.Value("emu.cycles.stall." + k)
	}
	intel := rows[0].metrics.Snapshot()
	for _, k := range cacheLevels {
		m["refcpu.ffbp_seq_intel.mem.served."+k] = intel.Value("cpu.mem.served." + k)
	}
	var sec [6]float64
	for r := range rows {
		sec[r] = rows[r].seconds
	}
	afPixels := float64(len(in.pairs) * len(in.shifts) * autofocus.PixelsProcessed())
	m["report.ffbp_energy_ratio"], m["report.af_energy_ratio"] = energyRatios(in.cfg, sec, afPixels)
	return m
}
