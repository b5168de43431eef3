package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed region of a traced run: a call into one layer.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for none
	Op     int     `json:"op"`     // the operation the span belongs to
	// AllocB is the heap allocated between start and end, summed over
	// every goroutine (0 for spans recorded with explicit times).
	AllocB float64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps the spans of one run in memory. A nil *tracer is an
// untraced run: begin returns -1 and end, add and the readers do
// nothing, so the measured code paths are the same in both kinds of run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// heapAllocs reads the process's cumulative heap allocation counter.
// Unlike runtime.ReadMemStats it does not stop the world.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Seconds(), Parent: parent, Op: op, AllocB: a})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].AllocB = a - t.spans[id].AllocB
}

// add records a span whose start and end were taken elsewhere (the
// open-loop generator's due times) and returns its index.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Seconds(),
		End: end.Sub(t.t0).Seconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// timed runs fn inside a span and returns its wall seconds, measured the
// same way whether or not the run is traced.
func (t *tracer) timed(name string, parent, op int, fn func()) float64 {
	id := t.begin(name, parent, op)
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	t.end(id)
	return d
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the duration of every span named name, in order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// allocs returns the heap bytes allocated inside every span named name.
func (t *tracer) allocs(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, s.AllocB)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children (the
// concurrent requests of serve-mix) count once.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi float64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, end := 0.0, s.Start
		for _, v := range ivs {
			if v.hi <= end {
				continue
			}
			covered += v.hi - max(v.lo, end)
			end = v.hi
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// coverage returns the share of the time spent in spans named op that
// their child spans cover.
func coverage(spans []span, op string) float64 {
	self := selfTimes(spans)
	var total, uncovered float64
	for i, s := range spans {
		if s.Name == op {
			total += s.End - s.Start
			uncovered += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - uncovered/total
}

// shares returns, for every span name directly under a span named op,
// the share of op's total time those child spans take.
func shares(spans []span, op string) map[string]float64 {
	var total float64
	in := map[string]float64{}
	for _, s := range spans {
		if s.Name == op {
			total += s.End - s.Start
		}
		if s.Parent >= 0 && spans[s.Parent].Name == op {
			in[s.Name] += s.End - s.Start
		}
	}
	for k := range in {
		in[k] /= total
	}
	return in
}

// writeSpans writes every traced run's spans, keyed by workload, as JSON.
func writeSpans(path string, runs map[string][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(runs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
