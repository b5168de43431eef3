// Package conform is the simulator conformance harness: it machine-checks
// the structural invariants a completed emu.Chip run must satisfy and (in
// its test suite) validates the discrete-event timing model against
// closed-form analytic expectations derived from Params alone.
//
// The whole reproduction rests on the emulator's cycle accounting — the
// profiler derives critical paths and per-phase energy from it, and the
// paper-scale speedup/efficiency tables are only as good as the
// stall/traffic bookkeeping. With no hardware to calibrate against, the
// equivalent of validating a timing model with measured microbenchmarks
// is twofold, and this package is both halves:
//
//   - Check verifies, after any Run, that the run's bookkeeping is
//     internally consistent: barrier phases tile the run without overlap,
//     every core's compute+stall cycles reproduce its clock, the
//     per-cause stall breakdown sums exactly, per-phase statistics deltas
//     reconcile with the run totals, streaming links are balanced
//     (producer and consumer agree on blocks and bytes), the off-chip
//     channel is drained at every barrier, and traced span streams are
//     monotone (core clocks never move backward). CheckProfile extends
//     the same discipline to internal/profile output: critical-path
//     segments and per-phase energy rows must partition the run exactly.
//
//   - The package's tests pair small parameterized microbenchmark
//     programs with closed-form expected cycle counts (local access
//     loops, stalling remote reads at varying hop counts, posted
//     off-chip writes under and over the bandwidth ceiling, DMA chains,
//     link ping-pong, barrier skew) compared exactly, plus a seeded
//     generator of random multi-core programs asserting the invariants
//     and run-to-run determinism under the race detector.
//
// Run the suite via `make conform` (the race step of `make check` runs
// it too); the facade exports Check as sarmany.CheckChip, and
// `epirun -check` runs it after real FFBP and autofocus workloads.
package conform

import (
	"errors"
	"fmt"
	"strings"

	"sarmany/internal/emu"
	"sarmany/internal/profile"
)

// Violation is one failed invariant.
type Violation struct {
	// Invariant is the machine name of the failed check, e.g.
	// "core.cycle-identity" or "phase.tiling".
	Invariant string
	// Detail locates and quantifies the failure.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Report is the outcome of a conformance pass: which invariant groups
// were evaluated and every violation found.
type Report struct {
	// Checked counts the invariant groups that were evaluated (groups
	// without applicable state — e.g. phase invariants of a barrier-free
	// run — are skipped, not passed).
	Checked int
	// Violations lists every failed invariant, in check order.
	Violations []Violation
}

// OK reports whether every evaluated invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, else one error naming every
// violation.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "conform: %d invariant violation(s):", len(r.Violations))
	for _, v := range r.Violations {
		sb.WriteString("\n  " + v.String())
	}
	return errors.New(sb.String())
}

// fail records a violation of the named invariant.
func (r *Report) fail(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// merge appends other's counts and violations.
func (r *Report) merge(other *Report) {
	r.Checked += other.Checked
	r.Violations = append(r.Violations, other.Violations...)
}

// approx reports a ≈ b within absEps plus a 1e-9 relative term at the
// scale of the larger magnitude.
func approx(a, b, absEps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if b > m {
		m = b
	} else if -b > m {
		m = -b
	}
	return d <= absEps+1e-9*m
}

// cycleEps absorbs float rounding in cycle comparisons. Model times are
// sums of per-operation cycle quantities, so real violations are
// fractions of a cycle or more, far above accumulated ulps; the relative
// term in approx covers long runs whose totals reach 1e9+ cycles.
const cycleEps = 1e-6

// closeCycles reports that two cycle quantities agree.
func closeCycles(a, b float64) bool { return approx(a, b, cycleEps) }

// Check verifies the structural invariants of a completed run on ch. It
// must be called after Run (or after a directly driven kernel) has
// returned, never concurrently with one; it settles pending dual-issue
// windows (which does not change modeled time) and then only reads.
func Check(ch *emu.Chip) *Report {
	ch.Settle()
	rep := &Report{}
	checkCores(rep, ch)
	checkPhases(rep, ch)
	checkPhaseStats(rep, ch)
	checkLinks(rep, ch)
	checkFaults(rep, ch)
	checkTrace(rep, ch)
	return rep
}

// CheckAll runs Check and, when the chip was traced, analyzes the run
// with internal/profile and verifies the profile invariants too — the
// full pass behind sarmany.CheckChip and the -check CLI flags.
func CheckAll(ch *emu.Chip) *Report {
	rep := Check(ch)
	if ch.Tracer() == nil {
		return rep
	}
	p, err := profile.AnalyzeChip(ch)
	if err != nil {
		rep.fail("profile.analyze", "%v", err)
		return rep
	}
	rep.merge(CheckProfile(p))
	return rep
}
