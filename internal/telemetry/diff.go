package telemetry

import (
	"encoding/json"

	"sarmany/internal/bench"
)

// DefaultAdvisory lists the leaf patterns a ledger diff reports but
// never gates on: run identity (id, start), anything wall-clock, and
// host shape. Everything else in an entry — config, seeds, fault plans,
// simulated cycles, energy — is deterministic, so a delta there is a
// real divergence. An embedded bench envelope's own advisory leaves
// (bench.Advisory) join these in DiffEntries.
var DefaultAdvisory = []string{
	"id",
	"start",
	"wall_seconds",
	"host.*",
	"version",
	"args*",
	// Wall-clock metric histograms (sweep.job.seconds and friends).
	"metrics.*seconds*",
	"envelope.version",
	// Tool-specific wall-clock extras.
	"extra.*seconds*",
	// Request traces: span IDs and wall-clock timestamps/durations by
	// construction, never part of the result identity.
	"trace_id",
	"trace.*",
}

// DiffEntries compares two ledger entries leaf by leaf with
// bench.DiffEnvelopes semantics. Entries are re-marshaled with their
// stored IDs, so the id leaf shows up as an advisory row — a non-empty
// delta table even for byte-identical simulation results, which is how
// a caller can tell "identical runs" from "diff silently compared
// nothing". Without explicit opt.Advisory patterns, DefaultAdvisory
// applies plus the advisory leaves of the embedded envelopes, the same
// ones the benchdiff gate uses.
func DiffEntries(a, b Entry, opt bench.DiffOptions) ([]bench.Finding, error) {
	if opt.Advisory == nil {
		opt.Advisory = append(envelopeAdvisory(a, b), DefaultAdvisory...)
	}
	ab, err := MarshalEntry(a)
	if err != nil {
		return nil, err
	}
	bb, err := MarshalEntry(b)
	if err != nil {
		return nil, err
	}
	return bench.DiffEnvelopes(ab, bb, opt)
}

// envelopeAdvisory returns bench.Advisory for each entry's embedded
// envelope, rooted at the entry's "envelope." leaves. An entry without
// a decodable envelope adds nothing; MarshalEntry reports a malformed
// one.
func envelopeAdvisory(es ...Entry) []string {
	var out []string
	for _, e := range es {
		var env bench.RawResult
		if json.Unmarshal(e.Envelope, &env) != nil {
			continue
		}
		for _, p := range bench.Advisory(env.Name) {
			out = append(out, "envelope."+p)
		}
	}
	return out
}
