package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sarmany/internal/telemetry"
)

// TestMain lets the test re-execute this binary as sarprof itself: when
// SARPROF_RUN_MAIN is set the process runs main() with the test binary's
// arguments instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("SARPROF_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSarprof re-executes the test binary as sarprof and returns its exit
// code and combined output. A throwaway -ledger directory is injected
// first so tests never write into the repo's out/runs; later -ledger
// occurrences in args still win (flag.Parse keeps the last value).
func runSarprof(t *testing.T, tamper bool, args ...string) (int, string) {
	t.Helper()
	args = append([]string{"-ledger", t.TempDir()}, args...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SARPROF_RUN_MAIN=1")
	if tamper {
		cmd.Env = append(cmd.Env, "SARPROF_TAMPER=1")
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

func writePlan(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.txt")
	plan := "seed 11\nhalt 3\nderate 1 2\ndma * 0.5 timeout 50 retries 1\n"
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestProfileFaultedRun verifies a degraded run profiles cleanly under
// -check and reports the fault degradation section.
func TestProfileFaultedRun(t *testing.T) {
	code, out := runSarprof(t, false,
		"-kernel", "ffbp-par", "-small", "-check", "-faults", writePlan(t))
	if code != 0 {
		t.Fatalf("exit %d; want 0\n%s", code, out)
	}
	if !strings.Contains(out, "conformance check passed") {
		t.Fatalf("no conformance confirmation in output:\n%s", out)
	}
	if !strings.Contains(out, "fault degradation") {
		t.Fatalf("no degradation section in report:\n%s", out)
	}
}

// TestCheckExitCodeOnConformanceFailure pins the exit status contract:
// a conformance failure on a faulted run must exit with status 2.
func TestCheckExitCodeOnConformanceFailure(t *testing.T) {
	code, out := runSarprof(t, true,
		"-kernel", "ffbp-par", "-small", "-check", "-faults", writePlan(t))
	if code != exitConformFail {
		t.Fatalf("exit %d; want %d (pinned conformance-failure status)\n%s",
			code, exitConformFail, out)
	}
	if !strings.Contains(out, "invariant violation") {
		t.Fatalf("failure output does not name the violation:\n%s", out)
	}
}

// TestLedgerRecordsCoresUsed checks that the manifest names the cores the
// kernel ran on, not the -cores flag: one for a sequential kernel, 13 for
// the autofocus pipeline, and all 16 of the E16G3 for ffbp-par -cores 0.
func TestLedgerRecordsCoresUsed(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-kernel", "af-seq"}, 1},
		{[]string{"-kernel", "af-par"}, 13},
		{[]string{"-kernel", "ffbp-par", "-cores", "0"}, 16},
	} {
		dir := filepath.Join(t.TempDir(), "runs")
		code, out := runSarprof(t, false, append(c.args, "-small", "-ledger", dir)...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", c.args, code, out)
		}
		entries, err := telemetry.Open(dir).List()
		if err != nil || len(entries) != 1 {
			t.Fatalf("%v: entries=%d err=%v", c.args, len(entries), err)
		}
		var cfg struct{ Cores int }
		if err := json.Unmarshal(entries[0].Config, &cfg); err != nil {
			t.Fatal(err)
		}
		if cfg.Cores != c.want {
			t.Errorf("%v: ledger config records %d cores, want %d", c.args, cfg.Cores, c.want)
		}
		if arg := fmt.Sprintf("cores=%d", c.want); !slices.Contains(entries[0].Args, arg) {
			t.Errorf("%v: ledger args %v lack %s", c.args, entries[0].Args, arg)
		}
	}
}

// TestRejectsNonEpiphanyKernels checks that the Intel reference kernels
// and unknown names are usage errors (status 1) that say what sarprof
// can profile.
func TestRejectsNonEpiphanyKernels(t *testing.T) {
	for _, k := range []string{"ffbp-intel", "no-such-kernel"} {
		code, out := runSarprof(t, false, "-kernel", k, "-small")
		if code != 1 {
			t.Errorf("-kernel %s: exit %d, want 1\n%s", k, code, out)
		}
		if !strings.Contains(out, "profiles Epiphany kernels only") {
			t.Errorf("-kernel %s: unexpected error output:\n%s", k, out)
		}
	}
}
