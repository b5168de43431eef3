package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"sarmany/internal/obs"
)

// Exposition: rendering an obs.Snapshot for standard scrape tooling.
// WritePrometheus emits the Prometheus text exposition format (version
// 0.0.4): counters and gauges as single samples, histograms as
// cumulative le-labeled buckets with _sum/_count plus p50/p90/p99
// quantile gauges. WriteExpvar emits one flat JSON object keyed by
// metric name — the same shape package expvar serves on /debug/vars —
// in the ledger's named-leaf form (MetricsMap).

// promName sanitizes a dotted metric name into the Prometheus name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promValue formats a sample value; Prometheus spells non-finite values
// "+Inf", "-Inf" and "NaN".
func promValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in Prometheus text format. The
// optional namespace prefixes every metric name (namespace_name).
func WritePrometheus(w io.Writer, s obs.Snapshot, namespace string) error {
	prefix := ""
	if namespace != "" {
		prefix = promName(namespace) + "_"
	}
	for _, m := range s {
		name := prefix + promName(m.Name)
		switch m.Type {
		case "counter":
			// The exposition format expects counter sample names to carry
			// a _total suffix.
			if !strings.HasSuffix(name, "_total") {
				name += "_total"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", name, name, promValue(m.Value)); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promValue(m.Value)); err != nil {
				return err
			}
		case "histogram":
			if err := writePromHistogram(w, name, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram emits one histogram: cumulative buckets in
// ascending le order ending at le="+Inf" (whose count equals _count),
// then _sum and _count, then quantile gauges estimated from the
// exponential buckets.
func writePromHistogram(w io.Writer, name string, m obs.Metric) error {
	type bound struct {
		le float64
		n  uint64
	}
	bounds := make([]bound, 0, len(m.Buckets))
	for label, n := range m.Buckets {
		le, ok := obs.BucketBound(label)
		if !ok {
			return fmt.Errorf("telemetry: unparseable bucket label %q in %s", label, m.Name)
		}
		bounds = append(bounds, bound{le, n})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].le < bounds[j].le })

	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	sawInf := false
	for _, b := range bounds {
		cum += b.n
		if math.IsInf(b.le, 1) {
			sawInf = true
			cum = m.Count // the top bucket is cumulative-total by definition
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promValue(b.le), cum); err != nil {
			return err
		}
	}
	if !sawInf {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, m.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promValue(m.Sum), name, m.Count); err != nil {
		return err
	}
	if m.Count > 0 {
		for _, q := range []struct {
			suffix string
			v      float64
		}{{"p50", m.P50}, {"p90", m.P90}, {"p99", m.P99}} {
			qn := name + "_" + q.suffix
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", qn, qn, promValue(q.v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteExpvar renders the snapshot as one expvar-style JSON object,
// MetricsMap's named-leaf form: {"metric.name": value, ...}, histograms
// as nested objects, non-finite values as null. An empty snapshot writes
// {}.
func WriteExpvar(w io.Writer, s obs.Snapshot) error {
	m := MetricsMap(s)
	if m == nil {
		m = map[string]any{}
	}
	return json.NewEncoder(w).Encode(m)
}
