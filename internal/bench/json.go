package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sarmany/internal/obs"
	"sarmany/internal/report"
)

// Result is the machine-readable envelope around one experiment's data,
// written as BENCH_<name>.json next to the human-readable table. Data
// holds the experiment's point slice or result struct (every point type
// in this package carries JSON tags); after a round trip through
// Marshal and RawResult it is a json.RawMessage instead, which DecodeData
// turns back into the concrete type.
type Result struct {
	Name  string `json:"name"`
	Title string `json:"title,omitempty"`
	// Pulses and Bins record the workload scale the experiment ran at,
	// so stored results from different scales are distinguishable.
	Pulses int `json:"pulses,omitempty"`
	Bins   int `json:"bins,omitempty"`
	// Salt and Version record provenance: the envelope-schema salt and
	// the code version (git revision) that computed the data. Both are
	// omitempty so envelopes written before they existed — and the
	// committed benchdiff baselines, which tests construct directly —
	// decode and re-marshal unchanged.
	Salt    string `json:"salt,omitempty"`
	Version string `json:"version,omitempty"`
	Data    any    `json:"data"`
}

// RawResult is the read-side counterpart of Result: Data stays raw for
// the caller to decode into the experiment's concrete point type.
type RawResult struct {
	Name    string          `json:"name"`
	Title   string          `json:"title"`
	Pulses  int             `json:"pulses"`
	Bins    int             `json:"bins"`
	Salt    string          `json:"salt"`
	Version string          `json:"version"`
	Data    json.RawMessage `json:"data"`
}

// EnvelopeSalt is the schema salt stamped into envelopes Compute
// produces. Bump it when the envelope layout changes incompatibly so
// history-reading tools (sarlog trend) can tell generations apart.
const EnvelopeSalt = "sarmany-bench-v1"

// Filename returns the canonical result file name for an experiment.
func Filename(name string) string { return "BENCH_" + name + ".json" }

// Marshal renders the envelope in the canonical on-disk form (indented
// JSON, trailing newline) — the exact bytes WriteFileRaw stores and the
// sweep cache replays, so a cached result is byte-identical to a fresh
// one.
func Marshal(r Result) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFileRaw writes pre-marshaled envelope bytes (as produced by
// Marshal or replayed from the sweep cache) to dir/BENCH_<name>.json.
func WriteFileRaw(dir, name string, b []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, Filename(name))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// GBPFFBPResult is the JSON form of the GBP-vs-FFBP comparison.
type GBPFFBPResult struct {
	GBPSeconds  float64 `json:"gbp_seconds"`
	FFBPSeconds float64 `json:"ffbp_seconds"`
	Speedup     float64 `json:"speedup"`
}

// experiment is one row of the experiment table: everything Compute,
// DecodeData, PrintResult, cmd/benchtab, serve admission and the
// benchdiff gate know about one experiment.
type experiment struct {
	// key selects the experiment (benchtab -exp, serve's JobSpec.Exp);
	// name names its envelope (BENCH_<name>.json). Both are public
	// identifiers, so they stay two columns where they differ.
	key, name, title string
	// pulses and bins, when set, are the workload scale the experiment
	// pins for itself (scale's 1024x251); the envelope records them
	// instead of the config's.
	pulses, bins int
	// advisory lists path.Match patterns of the envelope's leaves that
	// vary between runs and hosts (wall-clock, host shape): diffs report
	// them but never gate on them.
	advisory []string
	// run computes the envelope data; imgDir receives any image files.
	run    func(ctx context.Context, cfg report.Config, imgDir string) (any, error)
	print  func(w io.Writer, data any) error
	decode func(raw json.RawMessage) (any, error)
}

// row completes e with its run function and printer. The decoder is
// derived from the run function's result type, so a replayed envelope
// decodes to the same Go type a fresh run holds.
func row[T any](e experiment, run func(context.Context, report.Config, string) (T, error), print func(io.Writer, T)) experiment {
	e.run = func(ctx context.Context, cfg report.Config, imgDir string) (any, error) {
		return run(ctx, cfg, imgDir)
	}
	e.print = func(w io.Writer, data any) error {
		v, ok := data.(T)
		if !ok {
			return fmt.Errorf("print %s envelope: unhandled data type %T", e.name, data)
		}
		print(w, v)
		return nil
	}
	e.decode = func(raw json.RawMessage) (any, error) {
		var v T
		err := json.Unmarshal(raw, &v)
		return v, err
	}
	return e
}

// experiments is the experiment table, in the canonical "-exp all"
// order.
var experiments = []experiment{
	row(experiment{key: "t1", name: "table1", title: "Table I and energy ratios"},
		func(ctx context.Context, cfg report.Config, _ string) (*report.Table1, error) {
			return report.RunTable1(ctx, cfg)
		},
		func(w io.Writer, t *report.Table1) { io.WriteString(w, t.String()) }),
	row(experiment{key: "fig7", name: "fig7", title: "Figure 7 quality metrics"},
		func(ctx context.Context, cfg report.Config, imgDir string) (Fig7Result, error) {
			r, imgs, err := RunFigure7(ctx, cfg)
			if err == nil && imgDir != "" {
				err = saveFig7(imgs, imgDir)
			}
			return r, err
		}, printFig7),
	row(experiment{key: "scaling", name: "scaling", title: "FFBP speedup vs core count"},
		func(ctx context.Context, cfg report.Config, _ string) ([]ScalingPoint, error) {
			return RunScaling(ctx, cfg, []int{1, 2, 4, 8, 16, 32, 64})
		}, printScaling),
	row(experiment{key: "bw", name: "bandwidth", title: "Off-chip bandwidth sweep"},
		func(ctx context.Context, cfg report.Config, _ string) ([]BandwidthPoint, error) {
			return RunBandwidth(ctx, cfg, []float64{0.25, 0.5, 1, 2, 4})
		}, printBandwidth),
	row(experiment{key: "interp", name: "interp", title: "FFBP quality vs interpolation kernel"},
		func(ctx context.Context, cfg report.Config, _ string) ([]InterpPoint, error) {
			return RunInterp(ctx, cfg)
		}, printInterp),
	row(experiment{key: "pipes", name: "pipelines", title: "Autofocus pipeline replication"},
		func(ctx context.Context, cfg report.Config, _ string) ([]PipelinePoint, error) {
			return RunPipelines(ctx, cfg, []int{1, 2, 3, 4})
		}, printPipelines),
	row(experiment{key: "gbp", name: "gbp_vs_ffbp", title: "GBP vs FFBP complexity"},
		func(ctx context.Context, cfg report.Config, _ string) (GBPFFBPResult, error) {
			g, f, err := RunGBPvsFFBP(ctx, cfg)
			return GBPFFBPResult{GBPSeconds: g, FFBPSeconds: f, Speedup: g / f}, err
		}, printGBPvsFFBP),
	// host_ms times the host FFBP per base; array paths read
	// "data[i].host_ms", and path.Match would take a '[' in the pattern
	// for a character class.
	row(experiment{key: "base", name: "bases", title: "Factorization base ablation", advisory: []string{"data*.host_ms"}},
		func(ctx context.Context, cfg report.Config, _ string) ([]BasePoint, error) {
			return RunBases(ctx, cfg, []int{2, 4})
		}, printBases),
	row(experiment{key: "rda", name: "motivation", title: "Frequency vs time domain"},
		func(ctx context.Context, cfg report.Config, _ string) (MotivationResult, error) {
			return RunMotivation(ctx, cfg)
		}, printMotivation),
	row(experiment{key: "upsample", name: "upsample", title: "Range oversampling ablation"},
		func(ctx context.Context, cfg report.Config, _ string) ([]UpsamplePoint, error) {
			return RunUpsample(ctx, cfg, []int{1, 2, 4})
		}, printUpsample),
	row(experiment{key: "chaos", name: "chaos", title: "Fault-severity degradation sweep"},
		func(ctx context.Context, cfg report.Config, _ string) ([]ChaosPoint, error) {
			return RunChaos(ctx, cfg, []float64{0, 0.25, 0.5, 1})
		}, printChaos),
	// The kernels envelope is wall-clock throughput end to end: every
	// seconds, speedup and pixels/sec leaf, the per-merge-stage ones
	// included, is advisory; gbp_equiv_ok, bit_identical and the shape
	// counts gate.
	row(experiment{key: "kernels", name: "kernels", title: "Fused kernel throughput",
		advisory: []string{"data.*seconds*", "data.*speedup*", "data.*_per_sec"}},
		func(ctx context.Context, cfg report.Config, _ string) (KernelsResult, error) {
			return RunKernels(ctx, cfg)
		}, printKernels),
	row(experiment{key: "scale", name: "scale", title: "Manycore scale-up sweep", pulses: scalePulses, bins: scaleBins},
		func(ctx context.Context, cfg report.Config, _ string) ([]ScalePoint, error) {
			return RunScale(ctx, cfg)
		}, printScale),
}

// recordedAdvisory holds the advisory patterns of the envelopes that
// tests record (make sweepbench, profbench and servebench) and no
// experiment computes. The serve envelope's latency quantiles and rates
// are wall-clock; its job accounting (completed, executed and cache-hit
// counts and ratios) gates.
var recordedAdvisory = map[string][]string{
	"sweep":   {"data.seconds*", "data.speedup", "data.*_per_sec", "data.host_cpus"},
	"profile": {"data.analyze_seconds", "data.*_per_sec", "data.host_cpus"},
	"serve":   {"data.*p50_seconds", "data.*p99_seconds", "data.*_per_sec", "data.host_cpus"},
}

func byKey(key string) *experiment {
	for i := range experiments {
		if experiments[i].key == key {
			return &experiments[i]
		}
	}
	return nil
}

func byName(name string) *experiment {
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i]
		}
	}
	return nil
}

// Keys lists the experiment selector keys Compute accepts, in the
// canonical "-exp all" order.
func Keys() []string {
	keys := make([]string, len(experiments))
	for i, e := range experiments {
		keys[i] = e.key
	}
	return keys
}

// Title returns the envelope title of the experiment selected by key,
// and whether key selects an experiment at all.
func Title(key string) (string, bool) {
	if e := byKey(key); e != nil {
		return e.title, true
	}
	return "", false
}

// Advisory returns the path.Match patterns (against dotted leaf paths,
// e.g. "data.seconds_j1") of the named envelope's leaves that a diff
// reports but never gates on. It returns nil for an unknown name, so
// every leaf of an envelope no row describes gates.
func Advisory(name string) []string {
	if e := byName(name); e != nil {
		return e.advisory
	}
	return recordedAdvisory[name]
}

// Compute runs the experiment selected by key (the cmd/benchtab -exp
// names) and returns its machine-readable envelope without printing
// anything. The single filesystem side effect is the Fig. 7 image set,
// written into imgDir when key is "fig7" and imgDir is non-empty. The
// context is threaded into the experiment and checked between simulation
// units. When the context carries a request span (a traced sarserve
// submission), the experiment is recorded as a "bench.<key>" child
// span, so request traces show the simulation stage by name.
func Compute(ctx context.Context, key string, cfg report.Config, imgDir string) (res Result, err error) {
	if sp := obs.SpanFromContext(ctx).Child("bench." + key); sp != nil {
		defer func() {
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
		}()
	}
	e := byKey(key)
	if e == nil {
		return res, fmt.Errorf("unknown experiment %q", key)
	}
	data, err := e.run(ctx, cfg, imgDir)
	if err != nil {
		return res, err
	}
	res = Result{Name: e.name, Title: e.title, Pulses: cfg.Params.NumPulses, Bins: cfg.Params.NumBins,
		Salt: EnvelopeSalt, Version: Version(), Data: data}
	if e.pulses != 0 {
		res.Pulses, res.Bins = e.pulses, e.bins
	}
	return res, nil
}

// DecodeData converts a raw envelope payload (as read back from a
// BENCH_<name>.json file or the sweep cache) into the data type Compute
// produces for that envelope name.
func DecodeData(name string, raw json.RawMessage) (any, error) {
	e := byName(name)
	if e == nil {
		return nil, fmt.Errorf("unknown envelope name %q", name)
	}
	v, err := e.decode(raw)
	if err != nil {
		return nil, fmt.Errorf("decode %s envelope: %w", name, err)
	}
	return v, nil
}

// PrintResult renders the envelope's human-readable table to w. It
// accepts both freshly computed envelopes (Data holds the concrete type)
// and replayed ones (Data is a json.RawMessage from the sweep cache or a
// result file).
func PrintResult(w io.Writer, res Result) error {
	e := byName(res.Name)
	if e == nil {
		return fmt.Errorf("print: unknown envelope name %q", res.Name)
	}
	if raw, ok := res.Data.(json.RawMessage); ok {
		v, err := DecodeData(res.Name, raw)
		if err != nil {
			return err
		}
		res.Data = v
	}
	return e.print(w, res.Data)
}
