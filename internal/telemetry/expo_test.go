package telemetry

import (
	"encoding/json"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sarmany/internal/obs"
)

func expoRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("emu.cycles.total").Add(5634944)
	reg.Counter("sweep.jobs.executed").Add(16)
	reg.Gauge("energy.total_mj").Set(12.5)
	h := reg.Histogram("sweep.job.seconds")
	for i := 0; i < 100; i++ {
		h.Observe(0.010)
	}
	for i := 0; i < 5; i++ {
		h.Observe(3.0)
	}
	reg.Histogram("empty.hist")
	reg.Histogram("inf.hist").Observe(math.Inf(1))
	return reg
}

var (
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="([^"]*)"\})? (\S+)$`)
)

// TestPrometheusFormatValidity is the acceptance-criterion format test:
// every line of the exposition must be a well-formed TYPE comment or
// sample, every sample's base name must be declared by a preceding TYPE
// line, histogram buckets must be cumulative and end at le="+Inf" equal
// to _count, and the quantile gauges must be present and ordered.
func TestPrometheusFormatValidity(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, expoRegistry().Snapshot(), "sarmany"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	declared := map[string]string{} // metric family -> type
	type bucketSeen struct {
		last    float64
		lastCum uint64
		sawInf  bool
		infCum  uint64
	}
	buckets := map[string]*bucketSeen{}
	counts := map[string]uint64{}

	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if m := promTypeRe.FindStringSubmatch(line); m != nil {
			declared[m[1]] = m[2]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed line: %q", line)
		}
		name, le, val := m[1], m[3], m[4]
		// Resolve the sample back to its declared family.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && declared[base] == "histogram" {
				family = base
			}
		}
		if declared[family] == "" {
			t.Errorf("sample %q has no preceding # TYPE", name)
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil && val != "+Inf" && val != "-Inf" && val != "NaN" {
			t.Errorf("unparseable value %q on %q", val, line)
		}
		if strings.HasSuffix(name, "_bucket") {
			b := buckets[family]
			if b == nil {
				b = &bucketSeen{last: math.Inf(-1)}
				buckets[family] = b
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					t.Errorf("unparseable le %q", le)
				}
			}
			if bound <= b.last {
				t.Errorf("%s buckets out of order: le=%v after %v", family, bound, b.last)
			}
			cum := uint64(v)
			if cum < b.lastCum {
				t.Errorf("%s bucket counts not cumulative: %d after %d", family, cum, b.lastCum)
			}
			b.last, b.lastCum = bound, cum
			if math.IsInf(bound, 1) {
				b.sawInf, b.infCum = true, cum
			}
		}
		if strings.HasSuffix(name, "_count") && declared[family] == "histogram" {
			counts[family] = uint64(v)
		}
	}

	for family, typ := range declared {
		if typ != "histogram" {
			continue
		}
		b := buckets[family]
		if b == nil || !b.sawInf {
			t.Errorf("%s missing le=\"+Inf\" bucket", family)
			continue
		}
		if b.infCum != counts[family] {
			t.Errorf("%s +Inf bucket %d != _count %d", family, b.infCum, counts[family])
		}
	}

	// Quantile gauges present for the populated histogram, properly
	// typed, and ordered p50 <= p99.
	get := func(name string) float64 {
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
		m := re.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("missing sample %s in:\n%s", name, out)
		}
		v, _ := strconv.ParseFloat(m[1], 64)
		return v
	}
	p50 := get("sarmany_sweep_job_seconds_p50")
	p99 := get("sarmany_sweep_job_seconds_p99")
	if declared["sarmany_sweep_job_seconds_p50"] != "gauge" {
		t.Error("p50 not declared as gauge")
	}
	if !(p50 > 0 && p50 <= 0.016) || !(p99 >= 2 && p99 <= 3) || p50 >= p99 {
		t.Errorf("quantiles p50=%v p99=%v", p50, p99)
	}

	// The empty histogram still exposes _sum/_count/+Inf but no
	// quantile gauges (there is nothing to estimate).
	if !strings.Contains(out, "sarmany_empty_hist_count 0") {
		t.Error("empty histogram missing _count 0")
	}
	if strings.Contains(out, "sarmany_empty_hist_p50") {
		t.Error("empty histogram grew quantile gauges")
	}
	// Counters carry the conventional _total suffix.
	if !strings.Contains(out, "sarmany_emu_cycles_total 5.634944e+06") &&
		!strings.Contains(out, "sarmany_emu_cycles_total 5634944") {
		t.Errorf("counter sample missing:\n%s", out)
	}
}

// TestExpvarJSON pins the expvar rendering: a single valid JSON object
// keyed by the original dotted metric names, histograms nested,
// non-finite values null (in a ledger entry too), and {} for an empty
// snapshot.
func TestExpvarJSON(t *testing.T) {
	var sb strings.Builder
	if err := WriteExpvar(&sb, expoRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, sb.String())
	}
	if doc["emu.cycles.total"] != 5634944.0 || doc["energy.total_mj"] != 12.5 {
		t.Errorf("scalars: %v", doc)
	}
	h, ok := doc["sweep.job.seconds"].(map[string]any)
	if !ok {
		t.Fatalf("histogram not nested: %v", doc["sweep.job.seconds"])
	}
	if h["count"] != 105.0 {
		t.Errorf("count = %v", h["count"])
	}
	p50, p99 := h["p50"].(float64), h["p99"].(float64)
	if !(p50 > 0 && p50 < p99) {
		t.Errorf("quantiles p50=%v p99=%v", p50, p99)
	}
	if e, ok := doc["empty.hist"].(map[string]any); !ok || e["count"] != 0.0 {
		t.Errorf("empty histogram: %v", doc["empty.hist"])
	}
	isNull := func(h map[string]any, key string) bool {
		v, ok := h[key]
		return ok && v == nil
	}
	if inf, _ := doc["inf.hist"].(map[string]any); inf["count"] != 1.0 || !isNull(inf, "sum") || !isNull(inf, "max") {
		t.Errorf("infinite observation: %v, want count 1 and null sum and max", doc["inf.hist"])
	}

	raw, err := MarshalEntry(Entry{Metrics: MetricsMap(expoRegistry().Snapshot())})
	if err != nil {
		t.Fatalf("ledger entry with an infinite observation: %v", err)
	}
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if inf, _ := e.Metrics["inf.hist"].(map[string]any); !isNull(inf, "sum") || !isNull(inf, "max") {
		t.Errorf("ledger infinite observation: %v, want null sum and max", e.Metrics["inf.hist"])
	}

	sb.Reset()
	if err := WriteExpvar(&sb, nil); err != nil || strings.TrimSpace(sb.String()) != "{}" {
		t.Errorf("empty snapshot: %q, %v; want {}", sb.String(), err)
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"emu.cycles.total":   "emu_cycles_total",
		"sweep.job.seconds":  "sweep_job_seconds",
		"0weird-name":        "_weird_name",
		"obs.spans.dropped.": "obs_spans_dropped_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
