// Benchdiff compares two BENCH_*.json envelopes and exits nonzero when a
// non-advisory leaf diverges beyond the tolerance — the regression gate
// `make benchdiff` runs against the committed baselines.
//
// Usage:
//
//	go run ./scripts/benchdiff.go [-tol 0.02] baseline.json candidate.json
//
// The advisory leaves are the ones bench.Advisory lists for the
// baseline envelope's name: wall-clock and host-shape fields that vary
// between machines. They are printed when they change but never fail
// the gate. Everything else — modeled cycles, span counts, job counts —
// is deterministic simulator output and gates at the tolerance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"sarmany/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")

	tol := flag.Float64("tol", 0.02, "relative tolerance for numeric leaves")
	flag.Parse()
	if flag.NArg() != 2 {
		log.Fatalf("usage: benchdiff [-tol f] baseline.json candidate.json")
	}
	baseline, candidate := flag.Arg(0), flag.Arg(1)

	oldDoc, err := os.ReadFile(baseline)
	if err != nil {
		log.Fatal(err)
	}
	newDoc, err := os.ReadFile(candidate)
	if err != nil {
		log.Fatal(err)
	}
	var env bench.RawResult
	if err := json.Unmarshal(oldDoc, &env); err != nil {
		log.Fatalf("%s: %v", baseline, err)
	}

	findings, err := bench.DiffEnvelopes(oldDoc, newDoc, bench.DiffOptions{
		Tolerance: *tol,
		Advisory:  bench.Advisory(env.Name),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range findings {
		fmt.Printf("  %s\n", f)
	}
	if n := bench.Regressions(findings); n > 0 {
		log.Fatalf("%s vs %s: %d regression(s) beyond %.0f%% tolerance", baseline, candidate, n, *tol*100)
	}
	fmt.Printf("benchdiff: %s vs %s: ok (%d advisory)\n", baseline, candidate, len(findings))
}
