package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sarmany/internal/bench"
	"sarmany/internal/telemetry"
)

// TestMain lets the test re-execute this binary as epirun itself: when
// EPIRUN_RUN_MAIN is set the process runs main() with the test binary's
// arguments instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("EPIRUN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writePlan stores a small but non-trivial fault plan: a certain-to-fire
// link fault, a DMA fault, a derate and a halted core.
func writePlan(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.txt")
	plan := `seed 7
halt 15
derate 1 1.5
link 0 1 1 timeout 100 backoff 10 retries 2
dma * 0.5 timeout 50 retries 1
`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runEpirun re-executes the test binary as epirun and returns its exit
// code and combined output. A throwaway -ledger directory is injected
// first so tests never write into the repo's out/runs; later -ledger
// occurrences in args still win (flag.Parse keeps the last value).
func runEpirun(t *testing.T, tamper bool, args ...string) (int, string) {
	t.Helper()
	args = append([]string{"-ledger", t.TempDir()}, args...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EPIRUN_RUN_MAIN=1")
	if tamper {
		cmd.Env = append(cmd.Env, "EPIRUN_TAMPER=1")
	}
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v\n%s", args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestCheckPassesOnFaultedRun is the positive gate: a faulted, degraded
// FFBP run must still pass -check and exit 0.
func TestCheckPassesOnFaultedRun(t *testing.T) {
	code, out := runEpirun(t, false,
		"-kernel", "ffbp-par", "-small", "-check", "-faults", writePlan(t))
	if code != 0 {
		t.Fatalf("exit %d; want 0\n%s", code, out)
	}
	if !strings.Contains(out, "conformance check passed") {
		t.Fatalf("no conformance confirmation in output:\n%s", out)
	}
	if !strings.Contains(out, "remapped slot(s)") {
		t.Fatalf("no fault summary in output:\n%s", out)
	}
}

// TestCheckExitCodeOnConformanceFailure pins the exit status contract:
// when the conformance checker rejects a faulted run, epirun must exit
// with status 2 (not 1, the generic usage-error status) so automation can
// tell model bugs from bad invocations.
func TestCheckExitCodeOnConformanceFailure(t *testing.T) {
	code, out := runEpirun(t, true,
		"-kernel", "ffbp-par", "-small", "-check", "-faults", writePlan(t))
	if code != exitConformFail {
		t.Fatalf("exit %d; want %d (pinned conformance-failure status)\n%s",
			code, exitConformFail, out)
	}
	if !strings.Contains(out, "invariant violation") {
		t.Fatalf("failure output does not name the violation:\n%s", out)
	}
}

// TestFaultsRejectedForIntelKernels verifies the guard: fault plans only
// apply to the Epiphany model.
func TestFaultsRejectedForIntelKernels(t *testing.T) {
	code, out := runEpirun(t, false,
		"-kernel", "ffbp-intel", "-small", "-faults", writePlan(t))
	if code != 1 {
		t.Fatalf("exit %d; want 1\n%s", code, out)
	}
	if !strings.Contains(out, "Intel reference kernels") {
		t.Fatalf("unexpected error output:\n%s", out)
	}
}

// TestLedgerIdenticalRunsAgree is the acceptance contract for the run
// ledger: two epirun invocations with identical parameters record
// entries whose cycle and energy leaves agree exactly — zero
// non-advisory delta under ledger-diff semantics.
func TestLedgerIdenticalRunsAgree(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	for i := 0; i < 2; i++ {
		code, out := runEpirun(t, false,
			"-kernel", "ffbp-par", "-small", "-ledger", dir)
		if code != 0 {
			t.Fatalf("run %d exit %d:\n%s", i, code, out)
		}
		if !strings.Contains(out, "recorded in "+dir) {
			t.Fatalf("run %d did not report a ledger record:\n%s", i, out)
		}
	}
	entries, err := telemetry.Open(dir).List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("ledger holds %d entries, want 2", len(entries))
	}
	a, b := entries[0], entries[1]
	if a.Tool != "epirun" || a.Salt == "" || a.ConfigHash == "" {
		t.Errorf("entry missing provenance: tool=%q salt=%q confighash=%q",
			a.Tool, a.Salt, a.ConfigHash)
	}
	if a.ConfigHash != b.ConfigHash {
		t.Errorf("identical invocations hashed configs %s vs %s", a.ConfigHash, b.ConfigHash)
	}
	findings, err := telemetry.DiffEntries(a, b, bench.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := bench.Regressions(findings); n != 0 {
		t.Errorf("identical runs diverged on %d non-advisory leaves:", n)
		for _, f := range findings {
			t.Logf("  %s", f)
		}
	}
	if len(findings) == 0 {
		t.Error("delta table empty — advisory id/start rows should always differ")
	}
	if v, ok := telemetry.LeafValue(a, "metrics.emu.cycles.total"); !ok || v <= 0 {
		t.Errorf("metrics.emu.cycles.total = %v, %v", v, ok)
	}
	if v, ok := telemetry.LeafValue(a, "metrics.energy.total_j"); !ok || v <= 0 {
		t.Errorf("metrics.energy.total_j = %v, %v", v, ok)
	}
}

// TestLedgerAttributesChangedParam pins the other half of the
// acceptance contract: changing a parameter produces a non-zero delta
// attributed to the config leaf and the cycle counters.
func TestLedgerAttributesChangedParam(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	for _, cores := range []string{"16", "4"} {
		if code, out := runEpirun(t, false,
			"-kernel", "ffbp-par", "-small", "-cores", cores, "-ledger", dir); code != 0 {
			t.Fatalf("cores=%s exit %d:\n%s", cores, code, out)
		}
	}
	entries, err := telemetry.Open(dir).List()
	if err != nil || len(entries) != 2 {
		t.Fatalf("entries=%d err=%v", len(entries), err)
	}
	findings, err := telemetry.DiffEntries(entries[0], entries[1], bench.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bench.Regressions(findings) == 0 {
		t.Fatal("changed -cores produced no non-advisory delta")
	}
	text := ""
	for _, f := range findings {
		text += f.String() + "\n"
	}
	for _, want := range []string{"config.cores", "metrics.emu.cycles.total"} {
		if !strings.Contains(text, want) {
			t.Errorf("delta not attributed to %s:\n%s", want, text)
		}
	}
}

// TestZeroCoresMeansAll checks that -cores 0, which ParFFBP runs on every
// core of the chip, is reported as the 16 cores of the E16G3 in the JSON
// summary and in the text output's per-core table.
func TestZeroCoresMeansAll(t *testing.T) {
	code, out := runEpirun(t, false,
		"-kernel", "ffbp-par", "-small", "-cores", "0", "-json", "-ledger", "")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	i := strings.Index(out, "{")
	if i < 0 {
		t.Fatalf("no JSON summary in output:\n%s", out)
	}
	var s summary
	if err := json.NewDecoder(strings.NewReader(out[i:])).Decode(&s); err != nil {
		t.Fatalf("decoding summary: %v\n%s", err, out)
	}
	if s.Cores != 16 {
		t.Errorf("JSON summary reports %d cores, want 16", s.Cores)
	}
	code, out = runEpirun(t, false,
		"-kernel", "ffbp-par", "-small", "-cores", "0", "-percore", "-ledger", "")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "16 cores used") || !strings.Contains(out, "\n    15 ") {
		t.Errorf("text output does not report 16 cores:\n%s", out)
	}
}

// TestLedgerDisabled checks that -ledger "" turns recording off.
func TestLedgerDisabled(t *testing.T) {
	code, out := runEpirun(t, false,
		"-kernel", "ffbp-par", "-small", "-ledger", "")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if strings.Contains(out, "recorded in") {
		t.Fatalf("-ledger \"\" still recorded a run:\n%s", out)
	}
}

// TestWatchLiveStatus drives the flight recorder's live display: with
// -watch and a fast heartbeat the run prints carriage-return status
// lines with per-core progress. The -small run still outlasts dozens of
// 1 ms heartbeats.
func TestWatchLiveStatus(t *testing.T) {
	code, out := runEpirun(t, false,
		"-kernel", "ffbp-par", "-small", "-watch", "-heartbeat", "1ms")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "\r") || !strings.Contains(out, "cores moving") {
		t.Fatalf("no live status line in -watch output:\n%s", out)
	}
}

// TestDeadlinePostmortem wedges a run against an impossible wall-clock
// budget and checks the watchdog dumps a post-mortem with the event
// ring and goroutine stacks, and that the ledger entry is marked
// stalled.
func TestDeadlinePostmortem(t *testing.T) {
	dir := t.TempDir()
	pm := filepath.Join(dir, "postmortem.txt")
	code, out := runEpirun(t, false,
		"-kernel", "ffbp-par", "-small", "-ledger", filepath.Join(dir, "runs"),
		"-heartbeat", "1ms", "-deadline", "1ns", "-postmortem", pm)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "post-mortem") {
		t.Fatalf("watchdog did not announce the dump:\n%s", out)
	}
	data, err := os.ReadFile(pm)
	if err != nil {
		t.Fatalf("post-mortem file: %v", err)
	}
	text := string(data)
	for _, want := range []string{"deadline", "goroutine ", "run start"} {
		if !strings.Contains(text, want) {
			t.Errorf("post-mortem missing %q:\n%s", want, text)
		}
	}
	entries, err := telemetry.Open(filepath.Join(dir, "runs")).List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries=%d err=%v", len(entries), err)
	}
	if entries[0].Extra["stalled"] != true {
		t.Errorf("ledger entry not marked stalled: %v", entries[0].Extra)
	}
}

// TestFaultsHaltRejectedForSeqKernels verifies that halts are refused for
// kernels that cannot remap work off a dead core.
func TestFaultsHaltRejectedForSeqKernels(t *testing.T) {
	code, out := runEpirun(t, false,
		"-kernel", "ffbp-seq", "-small", "-faults", writePlan(t))
	if code != 1 {
		t.Fatalf("exit %d; want 1\n%s", code, out)
	}
	if !strings.Contains(out, "cannot remap") {
		t.Fatalf("unexpected error output:\n%s", out)
	}
}
