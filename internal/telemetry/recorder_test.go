package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sarmany/internal/obs"
)

// TestRecorderHeartbeat pins the live loop: heartbeat events land in the
// ring, and the status writer receives carriage-return updated lines.
func TestRecorderHeartbeat(t *testing.T) {
	var cycles atomic.Uint64
	ring := obs.NewEventRing(64)
	var status strings.Builder
	var mu chanWriter
	mu.b = &status

	r := Start(Options{
		Interval: 2 * time.Millisecond,
		Progress: func() Sample {
			v := float64(cycles.Add(100))
			return Sample{Total: v, Max: v, Phases: 1, Cores: []float64{v}}
		},
		Status: &mu,
		Events: ring,
	})
	deadline := time.Now().Add(2 * time.Second)
	for len(ring.Events()) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent

	ev := ring.Events()
	if len(ev) < 3 {
		t.Fatalf("only %d heartbeat events", len(ev))
	}
	if !strings.Contains(ev[0].Msg, "heartbeat:") || !strings.Contains(ev[0].Msg, "moving=true") {
		t.Errorf("event: %q", ev[0].Msg)
	}
	out := mu.String()
	if !strings.Contains(out, "\r") || !strings.Contains(out, "cores moving") {
		t.Errorf("status output: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("Stop did not finish the status line")
	}
	if r.Stalled() {
		t.Error("healthy run reported stalled")
	}
}

// chanWriter is a tiny synchronized strings.Builder (the recorder writes
// from its own goroutine).
type chanWriter struct {
	mu sync.Mutex
	b  *strings.Builder
}

func (w *chanWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *chanWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestWatchdogDumpsPostmortem wedges a run artificially (progress never
// moves) and checks the watchdog writes a post-mortem containing the
// stall reason, the flight-recorder ring and goroutine stacks — the
// acceptance criterion for the stall path.
func TestWatchdogDumpsPostmortem(t *testing.T) {
	dir := t.TempDir()
	pm := filepath.Join(dir, "postmortem.txt")
	ring := obs.NewEventRing(64)
	ring.Add("kernel launched")

	dumped := make(chan string, 1)
	r := Start(Options{
		Interval:   2 * time.Millisecond,
		StallAfter: 10 * time.Millisecond,
		Progress: func() Sample {
			return Sample{Total: 42, Max: 42, Phases: 7, Cores: []float64{42, 0}}
		},
		Events:         ring,
		PostmortemPath: pm,
		OnDump:         func(path, reason string) { dumped <- path },
	})
	defer r.Stop()

	select {
	case path := <-dumped:
		if path != pm {
			t.Errorf("dump path %q, want %q", path, pm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired on a wedged run")
	}
	if !r.Stalled() || r.PostmortemFile() != pm {
		t.Errorf("stalled=%v file=%q", r.Stalled(), r.PostmortemFile())
	}
	b, err := os.ReadFile(pm)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{
		"no progress for",
		"phases=7",
		"kernel launched", // the flight-recorder ring
		"heartbeat:",
		"goroutine ", // runtime.Stack output
		"core  0: 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-mortem missing %q:\n%s", want, out)
		}
	}
	// The dump fires once, not on every subsequent heartbeat.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-dumped:
		t.Error("watchdog dumped twice")
	default:
	}
}

// TestDeadlineDumpsPostmortem pins the run-deadline path: progress keeps
// moving, but the wall-clock budget expires.
func TestDeadlineDumpsPostmortem(t *testing.T) {
	pm := filepath.Join(t.TempDir(), "pm.txt")
	var cycles atomic.Uint64
	dumped := make(chan string, 1)
	r := Start(Options{
		Interval: 2 * time.Millisecond,
		Deadline: 15 * time.Millisecond,
		Progress: func() Sample {
			return Sample{Total: float64(cycles.Add(1))}
		},
		PostmortemPath: pm,
		OnDump:         func(path, reason string) { dumped <- reason },
	})
	defer r.Stop()
	select {
	case reason := <-dumped:
		if !strings.Contains(reason, "deadline") {
			t.Errorf("reason: %q", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never fired")
	}
}

func TestStatusLine(t *testing.T) {
	s := Sample{Max: 12345, Phases: 3, Cores: []float64{10, 20, 0}}
	prev := Sample{Cores: []float64{5, 20, 0}}
	line := statusLine(s, prev, 1500*time.Millisecond)
	for _, want := range []string{"1.5s", "phase 3", "12345 cycles", "1/3 cores moving"} {
		if !strings.Contains(line, want) {
			t.Errorf("status %q missing %q", line, want)
		}
	}
	// First heartbeat: no previous sample, any nonzero clock counts.
	line = statusLine(s, Sample{}, time.Second)
	if !strings.Contains(line, "2/3 cores moving") {
		t.Errorf("first-sample status: %q", line)
	}
}
