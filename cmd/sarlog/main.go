// Sarlog queries the run ledger: the append-only, content-addressed
// history of simulation runs that epirun, benchtab, sarsim, backproject
// and autofocus write under out/runs/.
//
// Usage:
//
//	sarlog list [-dir out/runs] [-n 20]
//	sarlog show [-dir out/runs] <ref>
//	sarlog diff [-dir out/runs] [-tol 0] [-gate] <refA> <refB>
//	sarlog trend [-dir out/runs] [-n 0] <leaf-path>
//	sarlog trace [-dir out/runs] [-perfetto out.json] <ref|job-id|trace-id>
//
// A <ref> is "@-1" (the most recent run), "@-2" (the one before), or an
// unambiguous run-ID prefix. Leaf paths use the dotted form the diff
// prints, e.g. "metrics.emu.cycles.total" or "envelope.data.speedup".
//
// trace renders the span tree a traced run embedded in its ledger
// entry: per-stage wall-clock timings from admission through queue
// wait, batch formation, execution and ledger write (see
// docs/OPERATIONS.md). Besides ledger refs it accepts the sarserve job
// ID or the W3C trace ID (a prefix will do) printed in the X-Trace-Id
// response header, and -perfetto additionally exports the tree in
// Chrome trace-event form for the Perfetto UI.
//
// diff compares every leaf of the two manifests with the same relative
// tolerance and advisory semantics as the benchdiff regression gate:
// wall-clock and host-shape leaves are reported but never gate. With
// -gate the exit status is 2 when any non-advisory leaf diverges beyond
// -tol — the CI contract: two runs of the same code and parameters must
// agree on every cycle and every nanojoule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sarmany/internal/bench"
	"sarmany/internal/obs"
	"sarmany/internal/telemetry"
)

// exitGateFail is the pinned exit status for a -gate diff that found
// non-advisory divergence, distinct from usage errors (status 1).
const exitGateFail = 2

func main() {
	log.SetFlags(0)
	log.SetPrefix("sarlog: ")

	if len(os.Args) < 2 {
		usage()
		os.Exit(1)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = cmdList(args)
	case "show":
		err = cmdShow(args)
	case "diff":
		err = cmdDiff(args)
	case "trend":
		err = cmdTrend(args)
	case "trace":
		err = cmdTrace(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		usage()
		log.Fatalf("unknown command %q", cmd)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  sarlog list  [-dir out/runs] [-n 20]
  sarlog show  [-dir out/runs] <ref>
  sarlog diff  [-dir out/runs] [-tol 0] [-gate] <refA> <refB>
  sarlog trend [-dir out/runs] [-n 0] <leaf-path>
  sarlog trace [-dir out/runs] [-perfetto out.json] <ref|job-id|trace-id>

refs: @-1 (latest), @-2, ... or a run-id prefix
`)
}

// dirFlag registers the shared -dir flag on a subcommand flag set.
func dirFlag(fs *flag.FlagSet) *string {
	return fs.String("dir", telemetry.DefaultDir, "ledger directory")
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	dir := dirFlag(fs)
	n := fs.Int("n", 20, "show at most n most recent runs (0 = all)")
	fs.Parse(args)

	entries, err := telemetry.Open(*dir).List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Printf("no runs recorded in %s\n", *dir)
		return nil
	}
	if *n > 0 && len(entries) > *n {
		entries = entries[len(entries)-*n:]
	}
	fmt.Printf("%-13s %-20s %-12s %9s  %-12s %s\n", "ID", "START", "TOOL", "WALL", "VERSION", "ARGS")
	for _, e := range entries {
		args := ""
		if len(e.Args) > 0 {
			for i, a := range e.Args {
				if i > 0 {
					args += " "
				}
				args += a
			}
		}
		fmt.Printf("%-13s %-20s %-12s %8.2fs  %-12s %s\n",
			e.ID, e.Start.Format("2006-01-02 15:04:05"), e.Tool, e.WallSeconds, e.Version, args)
	}
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	dir := dirFlag(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("show needs exactly one run reference")
	}
	l := telemetry.Open(*dir)
	e, err := l.Resolve(fs.Arg(0))
	if err != nil {
		return err
	}
	// Read re-verifies the content address and returns the stored bytes.
	_, raw, err := l.Read(e.ID)
	if err != nil {
		return err
	}
	os.Stdout.Write(raw)
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	dir := dirFlag(fs)
	tol := fs.Float64("tol", 0, "relative tolerance for numeric leaves")
	gate := fs.Bool("gate", false, "exit 2 when non-advisory leaves diverge")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two run references")
	}
	l := telemetry.Open(*dir)
	a, err := l.Resolve(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := l.Resolve(fs.Arg(1))
	if err != nil {
		return err
	}
	findings, err := telemetry.DiffEntries(a, b, bench.DiffOptions{Tolerance: *tol})
	if err != nil {
		return err
	}
	fmt.Printf("diff %s (%s) -> %s (%s): %d differing leaves, %d regressions\n",
		a.ID, a.Start.Format("2006-01-02 15:04:05"),
		b.ID, b.Start.Format("2006-01-02 15:04:05"),
		len(findings), bench.Regressions(findings))
	for _, f := range findings {
		fmt.Printf("  %s\n", f)
	}
	if *gate && bench.Regressions(findings) > 0 {
		log.Printf("gate: %d non-advisory leaves diverged", bench.Regressions(findings))
		os.Exit(exitGateFail)
	}
	return nil
}

// cmdTrace finds a traced run and renders its embedded span tree.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	dir := dirFlag(fs)
	perfetto := fs.String("perfetto", "", "also write the trace in Chrome trace-event JSON to this file")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("trace needs exactly one reference (ledger ref, job id or trace id)")
	}
	e, err := resolveTraced(telemetry.Open(*dir), fs.Arg(0))
	if err != nil {
		return err
	}
	if len(e.Trace) == 0 {
		return fmt.Errorf("run %s (trace %s) has no embedded span tree — was the request sampled? (sarserve -trace-sample, traceparent flags)",
			e.ID, orDash(e.TraceID))
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(e.Trace, &doc); err != nil {
		return fmt.Errorf("run %s: decoding embedded trace: %w", e.ID, err)
	}
	fmt.Printf("run %s · %s · %s\n", e.ID, e.Tool, e.Start.Format("2006-01-02 15:04:05"))
	if err := doc.WriteTree(os.Stdout); err != nil {
		return err
	}
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			return err
		}
		if err := doc.WriteTraceEvent(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *perfetto)
	}
	return nil
}

// resolveTraced maps a trace reference onto a ledger entry. Ledger refs
// (@-1, run-ID prefixes) resolve as everywhere else; failing that, the
// argument is matched as a sarserve job ID, then as a trace-ID prefix,
// most recent entry first — so the ID from an X-Trace-Id response
// header or a `sarlog list` line both work.
func resolveTraced(l *telemetry.Ledger, ref string) (telemetry.Entry, error) {
	if e, err := l.Resolve(ref); err == nil {
		return e, nil
	}
	entries, err := l.List()
	if err != nil {
		return telemetry.Entry{}, err
	}
	for i := len(entries) - 1; i >= 0; i-- {
		if id, ok := entries[i].Extra["job_id"].(string); ok && id == ref {
			return entries[i], nil
		}
	}
	if len(ref) >= 4 {
		for i := len(entries) - 1; i >= 0; i-- {
			if strings.HasPrefix(entries[i].TraceID, strings.ToLower(ref)) {
				return entries[i], nil
			}
		}
	}
	return telemetry.Entry{}, fmt.Errorf("no run matches %q as a ledger ref, job id or trace id", ref)
}

// orDash substitutes "-" for an empty field in human output.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func cmdTrend(args []string) error {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	dir := dirFlag(fs)
	n := fs.Int("n", 0, "use at most the n most recent runs (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("trend needs exactly one leaf path (e.g. metrics.emu.cycles.total)")
	}
	path := fs.Arg(0)
	entries, err := telemetry.Open(*dir).List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no runs recorded in %s", *dir)
	}
	if *n > 0 && len(entries) > *n {
		entries = entries[len(entries)-*n:]
	}
	pts := make([]telemetry.TrendPoint, 0, len(entries))
	for _, e := range entries {
		v, ok := telemetry.LeafValue(e, path)
		pts = append(pts, telemetry.TrendPoint{
			ID:    e.ID,
			Start: e.Start.Format("2006-01-02 15:04:05"),
			Value: v,
			OK:    ok,
		})
	}
	return telemetry.WriteTrend(os.Stdout, path, pts)
}
