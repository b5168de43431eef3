// Command perfbench is the repository's benchmark. It measures the host
// cost of reproducing the paper's results — Table I, an autofocus
// criterion stream, paper-scale image formation and a served job mix —
// end to end and layer by layer. README.md lists the workloads, the
// metrics and which layer metric moves which end-to-end metric.
//
//	perfbench --workload table1-paper --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set, measured untraced. With --trace 1 they are the
// per-layer set, measured by a traced run. A human-readable report goes
// to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// config is what one workload run is asked to do.
type config struct {
	seed    int64
	seconds float64 // how long to measure; 0 still runs one operation
	setups  int     // set-up repetitions; setup_s is their median
	tr      *tracer // nil for an untraced run
	workdir string  // scratch space for serve-mix's cache and ledger
	tiny    bool    // reduced input sizes, for the tests
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	setupS            []float64 // wall seconds of each set-up repetition
	opS               []float64 // host seconds per operation; job latency on serve-mix
	work, workS       float64   // units of work completed, and the host seconds they took
	allocB            float64   // heap bytes allocated while measuring
	layers            map[string]float64
}

// workload is one seeded input set of the benchmark.
type workload struct {
	name   string
	opSpan string        // the span that encloses one operation
	layers []layerMetric // per-layer metrics its traced run reports
	run    func(cfg config) (*outcome, error)
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

var workloads = []workload{table1Workload, afWorkload, imageWorkload, serveWorkload}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names the end-to-end metrics and their units; every
// workload reports all of them.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"op_s":        "s",
	"tail_s":      "s",
	"work_per_s":  "1/s",
	"alloc_mb":    "MB/op",
	"peak_rss_mb": "MB",
	"ok_ratio":    "ratio",
}

// traceLayers are the per-layer metrics every traced run adds for the
// workload it was asked for: traced over untraced op_s, and the share of
// the operation span its layer spans cover.
var traceLayers = []layerMetric{{"trace.overhead_ratio", "ratio"}, {"trace.coverage", "ratio"}}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd turns an untraced run's outcome into the end-to-end metrics.
func endToEnd(o *outcome, log io.Writer) map[string]float64 {
	// A failed or rejected job misses any latency limit: where one sets a
	// quantile, report it as having waited for the whole run.
	finite := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return o.workS
		}
		return v
	}
	q, tv, n := tail(o.opS)
	m := map[string]float64{
		"setup_s":     median(o.setupS),
		"op_s":        finite(median(o.opS)),
		"tail_s":      finite(tv),
		"work_per_s":  o.work / o.workS,
		"alloc_mb":    o.allocB / 1e6 / float64(o.attempted),
		"peak_rss_mb": peakRSSMB(),
		"ok_ratio":    float64(o.attempted-o.failed) / float64(o.attempted),
	}
	fmt.Fprintf(log, "op_s is the median of %d operations; tail_s is their p%.0f\n", n, 100*q)
	return m
}

// traced runs w for half the time untraced and half traced, then one
// traced operation of every other workload, so that every per-layer
// metric is measured on the workload that exercises its layer.
func traced(w workload, cfg config, log io.Writer) (*resultLine, error) {
	rep := &resultLine{Metrics: map[string]metric{}}
	count := func(o *outcome) {
		rep.Attempted += o.attempted
		rep.Failed += o.failed
	}
	half := cfg
	half.seconds, half.setups = cfg.seconds/2, 1
	plain, err := w.run(half)
	if err != nil {
		return nil, fmt.Errorf("%s untraced: %w", w.name, err)
	}
	count(plain)
	half.tr = newTracer()
	tw, err := w.run(half)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	count(tw)
	spans := map[string][]span{w.name: half.tr.snapshot()}
	layers := tw.layers
	layers["trace.overhead_ratio"] = median(tw.opS) / median(plain.opS)
	layers["trace.coverage"] = coverage(spans[w.name], w.opSpan)
	fmt.Fprintf(log, "%s: op_s %.6g s untraced, %.6g s traced; layer shares of op_s:\n", w.name, median(plain.opS), median(tw.opS))
	sh := shares(spans[w.name], w.opSpan)
	for _, k := range sortedKeys(sh) {
		fmt.Fprintf(log, "  %-28s %6.2f%%\n", k, 100*sh[k])
	}
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		one := cfg
		one.seconds, one.setups, one.tr = 0, 1, newTracer()
		oo, err := o.run(one)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", o.name, err)
		}
		count(oo)
		spans[o.name] = one.tr.snapshot()
		for k, v := range oo.layers {
			layers[k] = v
		}
	}
	for _, l := range allLayers() {
		v, ok := layers[l.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", l.name)
		}
		rep.Metrics[l.name] = metric{v, l.unit}
	}
	path := filepath.Join(cfg.workdir, "spans-"+w.name+".json")
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans written to %s\n", path)
	return rep, nil
}

// allLayers lists every per-layer metric, in the order workloads declare
// them.
func allLayers() []layerMetric {
	out := append([]layerMetric(nil), traceLayers...)
	for _, w := range workloads {
		out = append(out, w.layers...)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// run executes one benchmark invocation and returns its result line.
func run(w workload, cfg config, trace bool, log io.Writer) (*resultLine, error) {
	if trace {
		return traced(w, cfg, log)
	}
	o, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	rep := &resultLine{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for k, v := range endToEnd(o, log) {
		rep.Metrics[k] = metric{v, endToEndUnits[k]}
	}
	return rep, nil
}

func main() {
	name := flag.String("workload", "", "workload: table1-paper, af-stream, image-paper or serve-mix")
	seed := flag.Int64("seed", 1, "input seed (table1-paper ignores it: the paper fixes its input)")
	seconds := flag.Float64("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench/work", "scratch directory, kept inside the checkout")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace int, workdir string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace takes 0 or 1")
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	cfg := config{seed: seed, seconds: seconds, setups: 3, workdir: workdir}
	rep, err := run(w, cfg, trace == 1, os.Stderr)
	if err != nil {
		return err
	}
	rep.Correct = rep.Failed == 0
	for _, k := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
		fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
