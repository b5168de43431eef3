package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {19, 0.5}, {20, 0.5}, {30, 0.66}, {50, 0.8}, {100, 0.9}, {160, 0.9}, {10000, 0.9}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 20; n <= 400; n++ {
		q := tailQuantile(n)
		if beyond := n - 1 - int(math.Floor(q*float64(n-1))); beyond < 10 {
			t.Errorf("n=%d: p%.0f has %d samples beyond it", n, 100*q, beyond)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if q, v, n := tail(xs); q != 0.9 || math.Abs(v-89.1) > 1e-9 || n != 100 {
		t.Errorf("tail = p%v %v over %d samples, want p90 89.1 over 100", 100*q, v, n)
	}
}

func TestQuantileCountsFailuresAsMissingTheLimit(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, math.Inf(1)}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with a failure beyond p80 = %v, want +Inf", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 3, Parent: 0},
		{Name: "b", Start: 2, End: 5, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 7, End: 12, Parent: 0}, // clipped to the parent
		{Name: "d", Start: 7.5, End: 8, Parent: 3},
	}
	self := selfTimes(spans)
	for i, want := range []float64{3, 2, 3, 4.5, 0.5} {
		if math.Abs(self[i]-want) > 1e-12 {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want)
		}
	}
	if got := coverage(spans, "op"); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("coverage = %v, want 0.7", got)
	}
	if got := shares(spans, "op")["c"]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("share of c = %v, want 0.5", got)
	}
}

func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	sent := make([]time.Time, len(due))
	done := make([]time.Time, len(due))
	start := time.Now()
	openLoop(start, due, 1, func(i int) {
		sent[i] = time.Now()
		if i == 0 {
			time.Sleep(80 * time.Millisecond) // the stall
		}
		done[i] = time.Now()
	})
	for i := 1; i < len(due); i++ {
		service := done[i].Sub(sent[i])
		latency := done[i].Sub(start.Add(due[i]))
		if service > 20*time.Millisecond {
			t.Fatalf("request %d took %v to serve; the test needs it fast", i, service)
		}
		if latency < 80*time.Millisecond-due[i] {
			t.Errorf("request %d: latency %v from its due time does not include the stall", i, latency)
		}
	}
}

func TestServeScheduleIsSeededAndBalanced(t *testing.T) {
	a := serveSchedule(150, 10*time.Second, 7)
	b := serveSchedule(150, 10*time.Second, 7)
	c := serveSchedule(150, 10*time.Second, 8)
	same := func(x, y []serveJob) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) || same(a, c) {
		t.Fatal("the schedule must follow the seed")
	}
	var classes [3]int
	fresh := map[string]bool{}
	for i, j := range a {
		classes[j.class]++
		if i > 0 && j.due < a[i-1].due || j.due > 10*time.Second {
			t.Fatalf("job %d is due at %v, out of order or after the span", i, j.due)
		}
		switch j.class {
		case classFresh:
			fresh[j.spec.Tag] = true
		case classRepeat:
			if !fresh[j.spec.Tag] {
				t.Errorf("repeat %d has no earlier fresh spec %q", i, j.spec.Tag)
			}
		}
	}
	if classes != [3]int{50, 50, 50} {
		t.Errorf("classes %v, want a third each", classes)
	}
}

// TestWorkloadsSmoke runs one tiny traced operation of every workload:
// its output check passes and it measures every per-layer metric it
// declares.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 3, setups: 2, tr: newTracer(), workdir: t.TempDir(), tiny: true}
			o, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if o.attempted < 1 || o.failed != 0 {
				t.Fatalf("%d of %d operations failed", o.failed, o.attempted)
			}
			if len(o.setupS) != 2 || len(o.opS) != o.attempted {
				t.Errorf("%d set-up times and %d operation times for %d operations", len(o.setupS), len(o.opS), o.attempted)
			}
			for _, l := range w.layers {
				v, ok := o.layers[l.name]
				// Tiny images have seven merge stages, not ten.
				tinyGap := strings.HasPrefix(l.name, "ffbp.merge.") && (strings.HasPrefix(l.name, "ffbp.merge.8") ||
					strings.HasPrefix(l.name, "ffbp.merge.9") || strings.HasPrefix(l.name, "ffbp.merge.10"))
				if !ok || (math.IsNaN(v) || math.IsInf(v, 0)) && !tinyGap {
					t.Errorf("layer metric %s = %v, %v", l.name, v, ok)
				}
			}
			if c := coverage(cfg.tr.snapshot(), w.opSpan); c < 0.95 {
				t.Errorf("layer spans cover %.3f of the operation", c)
			}
			e := endToEnd(o, io.Discard)
			for k := range endToEndUnits {
				if v := e[k]; math.IsNaN(v) || v <= 0 {
					t.Errorf("end-to-end %s = %v", k, v)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesTheCode checks that BENCHMARK.json declares
// exactly the workloads and metrics the benchmark prints.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d run", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, the code runs %s", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics declared, %d printed", len(doc.EndToEnd), len(endToEndUnits))
	}
	for _, m := range doc.EndToEnd {
		if u, ok := endToEndUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s [%s] is printed as [%s]", m.Name, m.Unit, u)
		}
	}
	layers := allLayers()
	if len(doc.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(doc.PerLayer), len(layers))
	}
	for i, m := range doc.PerLayer {
		if m.Name != layers[i].name || m.Unit != layers[i].unit {
			t.Errorf("per-layer %d is %s [%s], the code prints %s [%s]", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
	}
}
