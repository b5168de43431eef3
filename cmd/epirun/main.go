// Epirun executes one implementation of the paper's Table I on the
// simulated machines and reports modeled execution time, per-core cycle
// breakdowns, and traffic statistics — the tool for exploring how the
// implementations spend their time.
//
// The -kernel names are Table I's rows in its order, as report.Impls
// lists them: ffbp-intel, ffbp-seq and ffbp-par run FFBP sequentially on
// the Intel i7 model, sequentially on one Epiphany core, and SPMD on the
// chip; af-intel, af-seq and af-par do the same for the autofocus
// criterion, af-par as the 13-core pipeline.
//
// Usage:
//
//	epirun -kernel ffbp-par                 # 16-core SPMD FFBP
//	epirun -kernel ffbp-par -cores 8
//	epirun -kernel ffbp-seq                 # one Epiphany core
//	epirun -kernel ffbp-intel               # Intel reference model
//	epirun -kernel af-par                   # 13-core autofocus pipeline
//	epirun -kernel af-seq | af-intel
//	epirun -kernel ffbp-par -mesh 8x8 -cores 64
//	epirun -small                           # reduced workload
//	epirun -trace out.json                  # Perfetto/Chrome trace of the run
//	epirun -metrics metrics.json            # metrics-registry snapshot
//	epirun -json                            # machine-readable summary on stdout
//	epirun -check                           # verify run invariants afterwards
//	epirun -profile -                       # profile report after the summary
//	epirun -profile profile.html            # self-contained HTML profile
//	epirun -profile profile.json            # machine-readable profile
//	epirun -faults plan.txt                 # inject a deterministic fault plan
//	epirun -watch                           # live per-core progress on stderr
//	epirun -stallafter 30s                  # watchdog: post-mortem if wedged
//	epirun -deadline 5m                     # post-mortem past the wall budget
//	epirun -ledger ''                       # skip the out/runs run ledger
//	epirun -log-format json                 # structured stderr diagnostics
//
// Every run appends a provenance manifest — parameters, fault plan,
// code version, metric snapshot, modeled energy — to the content-
// addressed run ledger under -ledger (default out/runs; empty
// disables). Query the history with sarlog (list/show/diff/trend).
//
// -watch drives a heartbeat goroutine that samples per-core progress
// (race-free atomic cells, no effect on modeled cycles) and renders a
// live status line. -stallafter and -deadline arm a watchdog on the
// same heartbeat: if the chip stops advancing (or the wall budget
// expires) it dumps the flight-recorder event ring and all goroutine
// stacks to a post-mortem file and the run is marked stalled.
//
// A -faults plan (see internal/fault for the format) degrades the run:
// halted cores have their tile work remapped to live neighbors, faulty
// links retransmit with backoff, DMA engines time out, derated cores run
// slower. The run completes with the overhead priced in cycles and
// energy; -check verifies the fault accounting. When the conformance
// check fails, epirun exits with status 2.
//
// -profile traces the run as -trace does and, once -check has passed,
// analyzes it with internal/profile: the critical path with per-cause
// stalls, per-phase energy and roofline bounds, the mesh heatmap, and
// under -faults the degradation section. "-" prints the text report
// after the summary; a .html path gets a self-contained page, a .json
// path the profile as JSON, and any other path the text report.
//
// A -trace file loads in ui.perfetto.dev or chrome://tracing: one thread
// per core with compute and stall spans, plus a phase track for the SPMD
// FFBP.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sarmany/internal/conform"
	"sarmany/internal/energy"
	"sarmany/internal/fault"
	"sarmany/internal/logx"
	"sarmany/internal/obs"
	"sarmany/internal/profile"
	"sarmany/internal/report"
	"sarmany/internal/telemetry"
)

// summary is the -json output: identity, modeled time, and the full
// metrics snapshot of the run.
type summary struct {
	Kernel  string       `json:"kernel"`
	Machine string       `json:"machine"`
	Cores   int          `json:"cores"`
	ClockHz float64      `json:"clock_hz"`
	Cycles  float64      `json:"cycles"`
	Seconds float64      `json:"seconds"`
	Metrics obs.Snapshot `json:"metrics"`
}

// exitConformFail is the pinned exit status for a failed -check pass, so
// scripts can tell a conformance violation from an ordinary usage error
// (status 1).
const exitConformFail = 2

// lg is the tool's structured logger (see internal/logx), built from
// -log-level/-log-format right after flag parsing.
var lg *slog.Logger

func main() {
	log.SetFlags(0)
	log.SetPrefix("epirun: ")

	var names []string
	for _, im := range report.Impls() {
		names = append(names, im.Kernel)
	}
	var (
		kernel  = flag.String("kernel", "ffbp-par", strings.Join(names, ", "))
		cores   = flag.Int("cores", 16, "cores for ffbp-par (0 = all)")
		mesh    = flag.String("mesh", "4x4", "Epiphany mesh size RxC")
		small   = flag.Bool("small", false, "reduced workload")
		perCore = flag.Bool("percore", false, "print per-core statistics")
		phases  = flag.Bool("phases", false, "print the per-phase timeline (SPMD kernels)")
		power   = flag.Bool("power", false, "print the modeled energy breakdown")
		traceF  = flag.String("trace", "", "write a Perfetto/Chrome trace_event JSON file")
		traceN  = flag.Int("tracecap", obs.DefaultCapacity, "trace ring capacity in spans per track (oldest dropped beyond)")
		metricF = flag.String("metrics", "", "write a metrics-registry snapshot JSON file")
		jsonOut = flag.Bool("json", false, "print a machine-readable summary instead of tables")
		check   = flag.Bool("check", false, "run the conformance checker on the completed run (Epiphany kernels)")
		profF   = flag.String("profile", "", "profile the run: - prints the report, a .html/.json path gets that format, other paths text (Epiphany kernels)")
		faultsF = flag.String("faults", "", "fault plan file to inject (Epiphany kernels)")
		watch   = flag.Bool("watch", false, "live per-core progress line on stderr (Epiphany kernels)")
		heartD  = flag.Duration("heartbeat", 200*time.Millisecond, "flight-recorder sampling interval for -watch/-stallafter/-deadline")
		stallD  = flag.Duration("stallafter", 0, "dump a post-mortem if the chip makes no progress for this long (0 = off)")
		deadlD  = flag.Duration("deadline", 0, "dump a post-mortem when the run exceeds this wall-clock budget (0 = off)")
		pmF     = flag.String("postmortem", "", "post-mortem dump path (default out/postmortem-<pid>.txt)")
		ledgerD = flag.String("ledger", telemetry.DefaultDir, "run-ledger directory; empty disables recording")
	)
	var logCfg logx.Config
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	lg = logCfg.MustNew("epirun")
	start := time.Now()

	// The run's request-domain trace: one root span covering the whole
	// invocation, with the simulator's cycle-domain tracks spliced in
	// before the ledger entry is sealed — so `sarlog trace @-1` renders
	// simulator runs with the same machinery as served requests.
	runTr := obs.NewReqTrace(obs.NewTraceID())
	runRoot := runTr.StartSpan("epirun")

	im, ok := report.Lookup(*kernel)
	if !ok {
		log.Fatalf("unknown kernel %q (%s)", *kernel, strings.Join(names, ", "))
	}
	if im.Kind == report.Intel {
		if *check {
			log.Fatal("-check verifies the Epiphany model; it does not apply to the Intel reference kernels")
		}
		if *profF != "" {
			log.Fatal("-profile analyzes the Epiphany chip's trace; it does not apply to the Intel reference kernels")
		}
		if *faultsF != "" {
			log.Fatal("-faults injects into the Epiphany model; it does not apply to the Intel reference kernels")
		}
		if *watch || *stallD > 0 || *deadlD > 0 {
			log.Fatal("-watch/-stallafter/-deadline sample the Epiphany chip's progress cells; they do not apply to the Intel reference kernels")
		}
	}
	if *jsonOut && *profF == "-" {
		log.Fatal("-json and -profile - both write stdout; give -profile a file path")
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
	var (
		tracer   *obs.Tracer
		rec      *telemetry.Recorder
		planText []byte
		planSeed int64
	)
	if m.CPU != nil {
		if *traceF != "" {
			tracer = obs.NewTracer(cfg.Intel.Clock)
			tracer.SetCapacity(*traceN)
			m.CPU.SetTracer(tracer)
		}
	} else {
		if *traceF != "" || *profF != "" {
			tracer = obs.NewTracer(cfg.Epiphany.Clock)
			tracer.SetCapacity(*traceN)
			ch.SetTracer(tracer)
		}
		if *faultsF != "" {
			plan, err := fault.ParseFile(*faultsF)
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
			planText, err = os.ReadFile(*faultsF)
			if err != nil {
				log.Fatal(err)
			}
			planSeed = plan.Seed
			lg.Info("fault plan "+*faultsF,
				"halts", len(plan.Halts), "derates", len(plan.Derates),
				"links", len(plan.Links), "dmas", len(plan.DMAs), "seed", plan.Seed)
		}

		// The flight recorder: a heartbeat goroutine sampling the chip's
		// atomic progress cells, driving the -watch status line and the
		// stall/deadline watchdog. Progress publication never changes
		// modeled cycles (see emu/progress.go), so an instrumented run
		// stays cycle-identical to a plain one.
		if *watch || *stallD > 0 || *deadlD > 0 {
			ch.EnableProgress()
			ring := obs.NewEventRing(obs.DefaultEventCapacity)
			ring.Addf("run start: kernel=%s cores=%d mesh=%s", *kernel, *cores, *mesh)
			opts := telemetry.Options{
				Progress: func() telemetry.Sample {
					p, _ := ch.Progress()
					return telemetry.Sample{Total: p.TotalCycles(), Max: p.MaxCycles(), Phases: p.Phases, Cores: p.Cores}
				},
				Events:         ring,
				Interval:       *heartD,
				StallAfter:     *stallD,
				Deadline:       *deadlD,
				PostmortemPath: *pmF,
				OnDump: func(path, reason string) {
					fmt.Fprintln(os.Stderr) // break out of the \r status line
					lg.Warn("post-mortem written", "reason", reason, "path", path)
				},
			}
			if *watch {
				opts.Status = os.Stderr
			}
			rec = telemetry.Start(opts)
		}
	}
	used, err := im.Run(m, cfg, in)
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		rec.Stop()
	}

	// What the run reads off its machine: the summary's identity and
	// clock, and a metrics registry (Metrics() builds it fresh each call)
	// into which the tracer's span accounting is published.
	sum := summary{Kernel: *kernel, Cores: used}
	var (
		reg     *obs.Registry
		runMesh string
		prof    *profile.Profile
	)
	if m.CPU != nil {
		writeTrace(*traceF, tracer)
		reg = m.CPU.Metrics()
		sum.Machine, sum.ClockHz, sum.Cycles, sum.Seconds = "intel-i7", m.CPU.P.Clock, m.CPU.Cycles(), m.CPU.Seconds()
	} else {
		// EPIRUN_TAMPER corrupts one cycle counter before -check runs: the
		// test suite's way to pin the conformance-failure exit status
		// without a real accounting bug to trip over.
		if os.Getenv("EPIRUN_TAMPER") != "" {
			ch.Cores[0].Stats.ComputeCycles++
		}
		if *check {
			if rep := conform.CheckAll(ch); !rep.OK() {
				log.Println(rep.Err())
				os.Exit(exitConformFail)
			}
			lg.Info("conformance check passed")
		}
		if *profF != "" {
			if prof, err = profile.AnalyzeChip(ch); err != nil {
				log.Fatal(err)
			}
			if *profF != "-" {
				writeProfile(*profF, prof)
			}
		}
		writeTrace(*traceF, tracer)
		// The chip's makespan, named so "sarlog trend
		// metrics.emu.cycles.total" works out of the box, and energy
		// gauges so the ledger diff covers nanojoules as well as cycles.
		reg = ch.Metrics()
		reg.Gauge("emu.cycles.total").Set(ch.MaxCycles())
		eb := energy.EpiphanyBreakdown(ch.TotalStats(), ch.Time())
		reg.Gauge("energy.total_j").Set(eb.Total())
		reg.Gauge("energy.compute_j").Set(eb.ComputeJ)
		reg.Gauge("energy.local_mem_j").Set(eb.LocalMemJ)
		reg.Gauge("energy.noc_j").Set(eb.NoCJ)
		reg.Gauge("energy.elink_j").Set(eb.ELinkJ)
		reg.Gauge("energy.static_j").Set(eb.StaticJ)
		reg.Gauge("energy.avg_w").Set(eb.AveragePower(ch.Time()))
		sum.Machine = fmt.Sprintf("epiphany-%dx%d", cfg.Epiphany.Rows, cfg.Epiphany.Cols)
		sum.ClockHz, sum.Cycles, sum.Seconds = cfg.Epiphany.Clock, ch.MaxCycles(), ch.Time()
		runMesh = *mesh
	}
	tracer.PublishMetrics(reg)
	sum.Metrics = reg.Snapshot()
	writeFile(*metricF, sum.Metrics.WriteJSON)

	extra := map[string]any{
		"machine": sum.Machine,
		"cycles":  sum.Cycles,
		"seconds": sum.Seconds,
	}
	if rec != nil && rec.Stalled() {
		extra["stalled"] = true
		extra["postmortem"] = rec.PostmortemFile()
	}
	e := ledgerEntry(start, cfg, sum.Metrics, extra, runArgs{kernel: *kernel, cores: used, mesh: runMesh, small: *small})
	if planText != nil {
		planDoc, err := json.Marshal(string(planText))
		if err != nil {
			log.Fatal(err)
		}
		e.FaultPlan = planDoc
		e.FaultHash = telemetry.HashJSON(planText)
		e.Seed = planSeed
	}
	sealRunTrace(&e, runTr, runRoot, tracer, start, *kernel, sum.Machine)
	recordRun(*ledgerD, e)

	if *jsonOut {
		if err := writeJSON(os.Stdout, sum); err != nil {
			log.Fatal(err)
		}
		return
	}
	if m.CPU != nil {
		fmt.Printf("%s on Intel i7 model @ %.2f GHz\n", *kernel, sum.ClockHz/1e9)
		fmt.Printf("  time: %.3f ms (%.0f cycles)\n", sum.Seconds*1e3, sum.Cycles)
		s := m.CPU.Stats
		fmt.Printf("  ops: %d FMA, %d flop, %d iop, %d div, %d sqrt, %d trig\n",
			s.FMA, s.Flop, s.IOp, s.Div, s.Sqrt, s.Trig)
		total := s.Served[0] + s.Served[1] + s.Served[2] + s.Served[3]
		if total > 0 {
			fmt.Printf("  memory: %d accesses — L1 %.1f%%, L2 %.1f%%, L3 %.1f%%, DRAM %.1f%%\n",
				total,
				100*float64(s.Served[0])/float64(total),
				100*float64(s.Served[1])/float64(total),
				100*float64(s.Served[2])/float64(total),
				100*float64(s.Served[3])/float64(total))
		}
		return
	}

	fmt.Printf("%s on Epiphany %dx%d @ %.1f GHz, %d cores used\n",
		*kernel, cfg.Epiphany.Rows, cfg.Epiphany.Cols, cfg.Epiphany.Clock/1e9, used)
	fmt.Printf("  time: %.3f ms (%.0f cycles)\n", ch.Time()*1e3, ch.MaxCycles())
	t := ch.TotalStats()
	fmt.Printf("  ops: %d FMA, %d flop, %d iop, %d div, %d sqrt, %d trig\n",
		t.FMA, t.Flop, t.IOp, t.Div, t.Sqrt, t.Trig)
	fmt.Printf("  local: %d loads, %d stores; remote: %d reads, %d writes (%d NoC bytes)\n",
		t.LocalLoads, t.LocalStores, t.RemoteReads, t.RemoteWrites, t.NoCBytes)
	fmt.Printf("  off-chip: %d reads (%d B), %d writes (%d B); %d DMA transfers (%d B)\n",
		t.ExtReads, t.ExtReadB, t.ExtWrites, t.ExtWriteB, t.DMATransfers, t.DMABytes)
	fmt.Printf("  cycles: %.0f compute, %.0f stalled\n", t.ComputeCycles, t.StallCycles)
	if inj := ch.Faults(); inj != nil && !inj.Empty() {
		fmt.Printf("  faults: %d link retries (%d B), %d dma retries, %.0f derate cycles, %d remapped slot(s), %d halted core(s)\n",
			t.LinkRetries, t.RetryBytes, t.DMARetries, t.DerateCycles,
			len(ch.Remaps()), len(inj.HaltedCores()))
	}

	if *perCore {
		fmt.Printf("  %4s %14s %14s %14s %12s\n", "core", "cycles", "compute", "stall", "ext bytes")
		for _, c := range ch.Cores[:used] {
			fmt.Printf("  %4d %14.0f %14.0f %14.0f %12d\n",
				c.ID, c.Cycles(), c.Stats.ComputeCycles, c.Stats.StallCycles,
				c.Stats.ExtReadB+c.Stats.ExtWriteB)
		}
	}
	if *phases {
		fmt.Println("  phase timeline:")
		ch.WritePhaseTable(os.Stdout)
	}
	if *power {
		b := energy.EpiphanyBreakdown(t, ch.Time())
		fmt.Printf("  modeled energy breakdown (avg %.2f W):\n%s", b.AveragePower(ch.Time()), b)
	}
	if im.Study == report.FFBP {
		fmt.Printf("  (image: %d x %d pixels, %d merge iterations)\n",
			cfg.Params.NumPulses, cfg.Params.NumBins, log2(cfg.Params.NumPulses))
	}
	if *profF == "-" {
		if err := prof.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// writeFile creates path and streams one exporter into it; a no-op when
// path is "".
func writeFile(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
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
}

// writeTrace dumps the tracer to path as trace_event JSON; a no-op when
// either is unset.
func writeTrace(path string, tr *obs.Tracer) {
	if path == "" || tr == nil {
		return
	}
	writeFile(path, tr.WriteTraceEvent)
	if n := tr.Dropped(); n > 0 {
		lg.Warn("trace ring overflow", "dropped", n)
	}
}

// sealRunTrace closes the run's root span, splices the simulator trace
// under it (cycle domain converted to wall clock, anchored at the run
// start) and embeds the resulting span tree plus trace ID in the ledger
// entry. All trace leaves are advisory under ledger-diff semantics, so
// identical runs still agree exactly.
func sealRunTrace(e *telemetry.Entry, rt *obs.ReqTrace, root *obs.ReqSpan, sim *obs.Tracer, base time.Time, kernel, machine string) {
	root.SetAttr("kernel", kernel)
	root.SetAttr("machine", machine)
	root.AttachSim(sim, base)
	root.End()
	e.TraceID = rt.TraceID().String()
	if raw, err := json.Marshal(rt.Doc()); err == nil {
		e.Trace = raw
	}
}

// writeProfile writes p to path in the format its extension names, by
// the rule imageio.Save uses: .html gets the self-contained page, .json
// the profile document, and any other extension the text report.
func writeProfile(path string, p *profile.Profile) {
	write := p.WriteText
	switch strings.ToLower(filepath.Ext(path)) {
	case ".html":
		write = p.WriteHTML
	case ".json":
		write = func(w io.Writer) error { return writeJSON(w, p) }
	}
	writeFile(path, write)
	lg.Info("wrote " + path)
}

// writeJSON encodes v to w as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runArgs carries the flag identity of a run for the ledger manifest.
type runArgs struct {
	kernel string
	cores  int
	mesh   string
	small  bool
}

// ledgerEntry assembles the provenance manifest of one run: the full
// parameter document (hashed for identity), code version, host shape,
// the metric snapshot in named-leaf form, and tool-specific extras.
func ledgerEntry(start time.Time, cfg report.Config, snap obs.Snapshot, extra map[string]any, a runArgs) telemetry.Entry {
	args := []string{
		"kernel=" + a.kernel,
		fmt.Sprintf("cores=%d", a.cores),
		fmt.Sprintf("small=%v", a.small),
	}
	if a.mesh != "" {
		args = append(args, "mesh="+a.mesh)
	}
	e, err := telemetry.NewEntry("epirun", start, map[string]any{
		"kernel": a.kernel,
		"cores":  a.cores,
		"mesh":   a.mesh,
		"small":  a.small,
		"params": cfg.Params,
	}, args...)
	if err != nil {
		log.Fatal(err)
	}
	e.Metrics = telemetry.MetricsMap(snap)
	e.Extra = extra
	return e
}

// recordRun appends the entry to the run ledger; -ledger ” disables.
// Ledger failures warn rather than fail the run — observability must
// never break the simulation it observes.
func recordRun(dir string, e telemetry.Entry) {
	id, err := telemetry.Record(dir, e)
	if err != nil {
		lg.Warn("ledger append failed", "err", err)
		return
	}
	if id != "" {
		lg.Info(fmt.Sprintf("run %s recorded in %s", id, dir), "run_id", id, "trace_id", e.TraceID)
	}
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
