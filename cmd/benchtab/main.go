// Benchtab regenerates the paper's evaluation artifacts: Table I
// (performance and power of the FFBP and autofocus implementations), the
// Sec. VI-A energy-efficiency ratios, the Fig. 7 image set, and the
// ablation sweeps listed in DESIGN.md.
//
// Experiments run through the internal/sweep engine: independent
// experiments fan out across -j workers, and with -cache-dir each
// result envelope is cached by a content address of its configuration,
// so a repeated run only simulates what changed.
//
// Usage:
//
//	benchtab -exp t1                 # Table I + energy ratios (paper scale)
//	benchtab -exp t1 -small          # reduced scale (fast)
//	benchtab -exp t1 -json           # also write BENCH_table1.json
//	benchtab -exp fig7 -out dir      # Fig. 7a-d images + quality metrics
//	benchtab -exp scaling            # FFBP speedup vs core count
//	benchtab -exp bw                 # autofocus throughput vs off-chip bandwidth
//	benchtab -exp interp             # FFBP quality vs interpolation kernel
//	benchtab -exp kernels            # fused vs reference hot-path throughput
//	benchtab -exp scale              # FFBP + autofocus across 64/256/1024-core devices
//	benchtab -exp all                # everything
//	benchtab -exp all -j 8           # everything, eight experiments at a time
//	benchtab -exp all -cache-dir .benchcache   # skip unchanged experiments
//	benchtab -exp all -timeout 10m   # bound each experiment's run time
//	benchtab -exp all -metrics m.json          # sweep progress counters
//
// benchtab -h lists every -exp key.
//
// With -json, each experiment additionally writes a machine-readable
// BENCH_<name>.json envelope into -jsondir (default "."). Cached and
// fresh runs write byte-identical envelopes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sarmany/internal/bench"
	"sarmany/internal/logx"
	"sarmany/internal/obs"
	"sarmany/internal/report"
	"sarmany/internal/sweep"
	"sarmany/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "t1", "experiment: "+strings.Join(bench.Keys(), ", ")+", all")
	small := flag.Bool("small", false, "run at reduced scale")
	out := flag.String("out", "out", "output directory for images")
	jsonOut := flag.Bool("json", false, "also write machine-readable BENCH_<name>.json results")
	jsonDir := flag.String("jsondir", ".", "directory for BENCH_<name>.json files (with -json)")
	jobs := flag.Int("j", 0, "concurrent experiments (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "result cache directory (empty = no caching)")
	timeout := flag.Duration("timeout", 0, "per-experiment timeout (0 = none)")
	metricF := flag.String("metrics", "", "write a sweep metrics snapshot JSON file")
	ledgerD := flag.String("ledger", telemetry.DefaultDir, "run-ledger directory; empty disables recording")
	var logCfg logx.Config
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	lg := logCfg.MustNew("benchtab")
	start := time.Now()

	cfg := report.Default()
	if *small {
		cfg = report.Small()
	}

	keys := bench.Keys()
	if *exp != "all" {
		if _, ok := bench.Title(*exp); !ok {
			lg.Error("unknown experiment", "exp", *exp)
			os.Exit(2)
		}
		keys = []string{*exp}
	}

	sweepJobs := make([]sweep.Job, len(keys))
	for i, key := range keys {
		title, _ := bench.Title(key)
		sweepJobs[i] = sweep.Job{Name: title, Exp: key, Config: cfg}
	}

	reg := obs.NewRegistry()
	imgDir := *out
	results, err := sweep.Run(context.Background(), sweepJobs, sweep.Options{
		Workers:  *jobs,
		CacheDir: *cacheDir,
		Timeout:  *timeout,
		Metrics:  reg,
		Run: func(ctx context.Context, j sweep.Job) (bench.Result, error) {
			return bench.Compute(ctx, j.Exp, j.Config, imgDir)
		},
	})
	if err != nil {
		lg.Error("sweep failed", "err", err)
		os.Exit(1)
	}

	failed := false
	for _, r := range results {
		header := fmt.Sprintf("== %s ==", r.Job.Name)
		if r.Cached {
			header += " (cached)"
		}
		fmt.Println(header)
		if r.Err != nil {
			failed = true
			lg.Error(r.Job.Name+" failed", "err", r.Err)
			continue
		}
		if r.Job.Exp == "fig7" && !r.Cached {
			fmt.Printf("wrote %s\n", imgDir)
		}
		if err := bench.PrintResult(os.Stdout, r.Result); err != nil {
			lg.Error(r.Job.Name+" failed", "err", err)
			os.Exit(1)
		}
		if *jsonOut {
			path, err := bench.WriteFileRaw(*jsonDir, r.Result.Name, r.Raw)
			if err != nil {
				lg.Error(r.Job.Name+" failed", "err", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}

	// Record the invocation in the run ledger: parameters, the sweep
	// metric snapshot (sweep.job.seconds p50/p99 ride along), and — for a
	// single-experiment run — the bench envelope itself, so sarlog diff
	// can attribute result drift leaf by leaf.
	if *ledgerD != "" {
		cached := 0
		for _, r := range results {
			if r.Cached {
				cached++
			}
		}
		e, err := telemetry.NewEntry("benchtab", start, map[string]any{
			"exp":    *exp,
			"small":  *small,
			"params": cfg.Params,
		}, "exp="+*exp, fmt.Sprintf("small=%v", *small))
		if err != nil {
			lg.Warn("ledger entry failed", "err", err)
		} else {
			e.Metrics = telemetry.MetricsMap(reg.Snapshot())
			e.Extra = map[string]any{
				"experiments": len(results),
				"cached":      cached,
				"failed":      failed,
			}
			if len(results) == 1 && results[0].Err == nil && len(results[0].Raw) > 0 {
				e.Envelope = results[0].Raw
			}
			if id, err := telemetry.Record(*ledgerD, e); err != nil {
				lg.Warn("ledger append failed", "err", err)
			} else {
				lg.Info(fmt.Sprintf("run %s recorded in %s", id, *ledgerD), "run_id", id)
			}
		}
	}

	if *metricF != "" {
		f, err := os.Create(*metricF)
		if err != nil {
			lg.Error("metrics snapshot failed", "err", err)
			os.Exit(1)
		}
		if err := reg.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			lg.Error("metrics snapshot failed", "err", err)
			os.Exit(1)
		}
		f.Close()
	}
	if failed {
		os.Exit(1)
	}
}
