// Sarprof runs one Epiphany implementation of the paper's Table I with
// tracing on and analyzes the trace with internal/profile: critical-path
// extraction with per-cause stall attribution, per-phase energy
// attribution against the power model, a roofline classification of
// every barrier phase, and a mesh heatmap of core utilization and link
// traffic.
//
// The -kernel names are the Epiphany rows of report.Impls: ffbp-seq and
// af-seq on one core, ffbp-par and af-par mapped onto the chip. The run
// ledger records the cores the kernel used.
//
// Usage:
//
//	sarprof -kernel ffbp-par                  # profile the 16-core FFBP
//	sarprof -kernel ffbp-par -cores 8 -small
//	sarprof -kernel af-par                    # the 13-core autofocus pipeline
//	sarprof -kernel ffbp-seq
//	sarprof -kernel ffbp-par -mesh 8x8 -cores 64
//	sarprof -html profile.html                # self-contained HTML report
//	sarprof -json profile.json                # machine-readable profile
//	sarprof -tracecap 262144                  # larger span rings
//	sarprof -check                            # verify run invariants first
//	sarprof -faults plan.txt                  # profile a degraded run
//
// A -faults plan (see internal/fault) degrades the run before profiling;
// the report then includes the fault degradation section with per-target
// retry, derate and remap costs. When -check fails, sarprof exits with
// status 2.
//
// The text report always goes to stdout. The Intel rows cannot be
// profiled: the analyzer consumes the chip's span tracks, dependency
// edges and phase records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"strings"
	"time"

	"sarmany/internal/conform"
	"sarmany/internal/fault"
	"sarmany/internal/logx"
	"sarmany/internal/obs"
	"sarmany/internal/profile"
	"sarmany/internal/report"
	"sarmany/internal/telemetry"
)

// exitConformFail is the pinned exit status for a failed -check pass, so
// scripts can tell a conformance violation from an ordinary usage error
// (status 1).
const exitConformFail = 2

// lg is the tool's structured logger (see internal/logx), built from
// -log-level/-log-format right after flag parsing.
var lg *slog.Logger

func main() {
	log.SetFlags(0)
	log.SetPrefix("sarprof: ")

	var names []string
	for _, im := range report.Impls() {
		if im.Kind != report.Intel {
			names = append(names, im.Kernel)
		}
	}
	var (
		kernel  = flag.String("kernel", "ffbp-par", strings.Join(names, ", "))
		cores   = flag.Int("cores", 16, "cores for ffbp-par (0 = all)")
		mesh    = flag.String("mesh", "4x4", "Epiphany mesh size RxC")
		small   = flag.Bool("small", false, "reduced workload")
		traceN  = flag.Int("tracecap", obs.DefaultCapacity, "trace ring capacity in spans per track")
		htmlF   = flag.String("html", "", "also write a self-contained HTML report")
		jsonF   = flag.String("json", "", "also write the profile as JSON")
		check   = flag.Bool("check", false, "run the conformance checker on the completed run")
		faultF  = flag.String("faults", "", "fault plan file to inject before the run")
		ledgerD = flag.String("ledger", telemetry.DefaultDir, "run-ledger directory; empty disables recording")
	)
	var logCfg logx.Config
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	lg = logCfg.MustNew("sarprof")
	start := time.Now()

	im, ok := report.Lookup(*kernel)
	if !ok || im.Kind == report.Intel {
		log.Fatalf("-kernel %q: sarprof profiles Epiphany kernels only (%s)", *kernel, strings.Join(names, ", "))
	}
	cfg := report.Default()
	if *small {
		cfg = report.Small()
	}
	var r, c int
	if _, err := fmt.Sscanf(*mesh, "%dx%d", &r, &c); err != nil || r < 1 || c < 1 {
		log.Fatalf("bad mesh %q", *mesh)
	}
	cfg.Epiphany = cfg.Epiphany.WithMesh(r, c)
	cfg.FFBPCores = *cores
	in := report.NewInputs(cfg)

	m := im.NewMachine(cfg)
	ch := m.Chip
	tracer := obs.NewTracer(cfg.Epiphany.Clock)
	tracer.SetCapacity(*traceN)
	ch.SetTracer(tracer)
	if *faultF != "" {
		plan, err := fault.ParseFile(*faultF)
		if err != nil {
			log.Fatal(err)
		}
		if len(plan.Halts) > 0 && im.Kind == report.EpiphanyCore {
			log.Fatal("the plan halts cores, but sequential kernels run directly on core 0 and cannot remap; use a mapped kernel")
		}
		inj, err := plan.Compile()
		if err != nil {
			log.Fatal(err)
		}
		ch.SetFaults(inj)
	}
	used, err := im.Run(m, cfg, in)
	if err != nil {
		log.Fatal(err)
	}

	// SARPROF_TAMPER corrupts one cycle counter before -check runs: the
	// test suite's way to pin the conformance-failure exit status without
	// a real accounting bug to trip over.
	if os.Getenv("SARPROF_TAMPER") != "" {
		ch.Cores[0].Stats.ComputeCycles++
	}
	if *check {
		if rep := conform.CheckAll(ch); !rep.OK() {
			log.Println(rep.Err())
			os.Exit(exitConformFail)
		}
		lg.Info("conformance check passed")
	}

	p, err := profile.AnalyzeChip(ch)
	if err != nil {
		log.Fatal(err)
	}

	// Record the profiled run in the ledger: the same provenance shape as
	// epirun, so sarlog can diff a profile run against a plain run.
	if *ledgerD != "" {
		e, lerr := telemetry.NewEntry("sarprof", start, map[string]any{
			"kernel": *kernel,
			"cores":  used,
			"mesh":   *mesh,
			"small":  *small,
			"params": cfg.Params,
		}, "kernel="+*kernel, fmt.Sprintf("cores=%d", used), fmt.Sprintf("small=%v", *small), "mesh="+*mesh)
		if lerr != nil {
			log.Printf("ledger: %v", lerr)
		} else {
			reg := ch.Metrics()
			reg.Gauge("emu.cycles.total").Set(ch.MaxCycles())
			e.Metrics = telemetry.MetricsMap(reg.Snapshot())
			e.Extra = map[string]any{
				"machine": fmt.Sprintf("epiphany-%dx%d", r, c),
				"cycles":  ch.MaxCycles(),
				"seconds": ch.Time(),
			}
			if *faultF != "" {
				e.Extra["faults"] = *faultF
			}
			if id, lerr := telemetry.Record(*ledgerD, e); lerr != nil {
				lg.Warn("ledger append failed", "err", lerr)
			} else {
				lg.Info(fmt.Sprintf("run %s recorded in %s", id, *ledgerD), "run_id", id)
			}
		}
	}

	fmt.Printf("%s: ", *kernel)
	if err := p.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *htmlF != "" {
		writeTo(*htmlF, p.WriteHTML)
	}
	if *jsonF != "" {
		writeTo(*jsonF, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(p)
		})
	}
}

// writeTo creates path and streams one of the profile's exporters into it.
func writeTo(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	lg.Info("wrote " + path)
}
