package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Counter("a").Add(3)
	r.Gauge("b").Set(7)
	r.Gauge("b").Set(9)
	if v := r.Counter("a").Value(); v != 5 {
		t.Errorf("counter = %v", v)
	}
	if v := r.Gauge("b").Value(); v != 9 {
		t.Errorf("gauge = %v", v)
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stall")
	for _, v := range []float64{0.5, 1, 3, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	m, ok := s.Get("stall")
	if !ok || m.Type != "histogram" {
		t.Fatalf("snapshot %+v", s)
	}
	if m.Count != 4 || m.Sum != 104.5 || m.Min != 0.5 || m.Max != 100 {
		t.Errorf("histogram metric %+v", m)
	}
	if m.Mean != 104.5/4 {
		t.Errorf("mean %v", m.Mean)
	}
	// 0.5 -> "<1", 1 -> "<2", 3 -> "<4", 100 -> "<128"
	for _, b := range []string{"<1", "<2", "<4", "<128"} {
		if m.Buckets[b] != 1 {
			t.Errorf("bucket %q = %d, want 1 (all: %v)", b, m.Buckets[b], m.Buckets)
		}
	}
}

func TestSnapshotSortedAndEncodes(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(1)
	r.Gauge("a.first").Set(2)
	r.Histogram("m.mid").Observe(4)
	s := r.Snapshot()
	if len(s) != 3 || s[0].Name != "a.first" || s[1].Name != "m.mid" || s[2].Name != "z.last" {
		t.Fatalf("snapshot order: %+v", s)
	}

	var jb bytes.Buffer
	if err := s.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if len(back) != 3 || back[2].Value != 1 {
		t.Errorf("decoded %+v", back)
	}
}

func TestSnapshotValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(42)
	if v := r.Snapshot().Value("x"); v != 42 {
		t.Errorf("Value = %v", v)
	}
	if v := r.Snapshot().Value("missing"); v != 0 {
		t.Errorf("missing Value = %v", v)
	}
}
