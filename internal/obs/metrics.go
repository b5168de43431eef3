package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Registry is a named collection of counters, gauges and histograms. All
// operations are safe for concurrent use; the simulator populates
// registries after a run completes, so none of them sit on a hot path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{min: math.Inf(1), max: math.Inf(-1)}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically accumulating value.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add accumulates delta into the counter.
func (c *Counter) Add(delta float64) {
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Value returns the accumulated value.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a last-write-wins value.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram bucket geometry: 64 bounded exponential (power-of-two)
// buckets. Bucket i covers [2^(i-33), 2^(i-32)); bucket 0 additionally
// absorbs everything below 2^-32 (including zero), and the top bucket
// absorbs everything from 2^30 up. The range 2^-32..2^30 comfortably
// spans both sub-second job latencies and multi-billion-cycle runs, so
// quantile estimation stays within one power of two everywhere the
// simulator reports.
const (
	numBuckets   = 64
	minBucketExp = -33 // exponent of bucket 0's lower bound
)

// bucketIndex returns the bucket holding v. The top bucket also takes
// +Inf and NaN, whose conversion to int is undefined.
func bucketIndex(v float64) int {
	if v < math.Exp2(minBucketExp+1) {
		return 0
	}
	if !(v < math.Exp2(minBucketExp+numBuckets)) {
		return numBuckets - 1
	}
	return int(math.Floor(math.Log2(v))) - minBucketExp
}

// bucketBounds returns bucket i's half-open interval [lo, hi). Bucket 0
// reaches down to zero and the top bucket up to +Inf.
func bucketBounds(i int) (lo, hi float64) {
	lo = math.Exp2(float64(i + minBucketExp))
	hi = math.Exp2(float64(i + minBucketExp + 1))
	if i == 0 {
		lo = 0
	}
	if i == numBuckets-1 {
		hi = math.Inf(1)
	}
	return lo, hi
}

// Histogram accumulates a distribution: count, sum, min, max and bounded
// exponential buckets (see bucketIndex for the geometry), from which
// Quantile estimates order statistics.
type Histogram struct {
	mu       sync.Mutex
	count    uint64
	sum      float64
	min, max float64
	buckets  [numBuckets]uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketIndex(v)]++
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution from the exponential buckets: it walks to the bucket
// holding the target rank and interpolates linearly inside it, then
// clamps to the observed [min, max]. The bucket geometry bounds the
// relative error by one power of two. NaN when nothing was observed.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next < target {
			cum = next
			continue
		}
		lo, hi := bucketBounds(i)
		if lo < h.min {
			lo = h.min
		}
		if hi > h.max {
			hi = h.max
		}
		v := lo + (hi-lo)*(target-cum)/float64(n)
		// Clamp against min/max once more: a single-bucket distribution
		// interpolates inside [min, max] already, but floating point can
		// land a hair outside.
		return math.Min(math.Max(v, h.min), h.max)
	}
	return h.max
}

// Metric is one snapshotted registry entry. Counters and gauges carry
// Value; histograms carry Count/Sum/Min/Max/Mean, the estimated
// p50/p90/p99 quantiles, and the non-empty exponential buckets.
type Metric struct {
	Name  string  `json:"name"`
	Type  string  `json:"type"`
	Value float64 `json:"value,omitempty"`

	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	// P50/P90/P99 are bucket-estimated quantiles (see Histogram.Quantile).
	P50 float64 `json:"p50,omitempty"`
	P90 float64 `json:"p90,omitempty"`
	P99 float64 `json:"p99,omitempty"`
	// Buckets maps power-of-two bucket upper bounds (as "<0.5", "<1",
	// "<2", "<4", ...; the top bucket is "<+Inf") to observation counts.
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, sorted by metric name.
type Snapshot []Metric

// Snapshot copies the registry's current state, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Type: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Type: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		h.mu.Lock()
		m := Metric{Name: name, Type: "histogram", Count: h.count, Sum: h.sum}
		if h.count > 0 {
			m.Min, m.Max, m.Mean = h.min, h.max, h.sum/float64(h.count)
			m.P50 = h.quantileLocked(0.50)
			m.P90 = h.quantileLocked(0.90)
			m.P99 = h.quantileLocked(0.99)
			for i, n := range h.buckets {
				if n == 0 {
					continue
				}
				if m.Buckets == nil {
					m.Buckets = map[string]uint64{}
				}
				m.Buckets[bucketLabel(i)] = n
			}
		}
		h.mu.Unlock()
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// bucketLabel renders bucket i's upper bound as a "<bound>" key.
// strconv's 'g' format round-trips exactly, so exposition code (the
// Prometheus renderer) can parse the bound back out of the label.
func bucketLabel(i int) string {
	_, hi := bucketBounds(i)
	return "<" + strconv.FormatFloat(hi, 'g', -1, 64)
}

// BucketBound parses the upper bound out of a snapshot bucket label
// ("<0.5", "<128", "<+Inf"). The second result is false for a label the
// snapshot writer did not produce.
func BucketBound(label string) (float64, bool) {
	if len(label) < 2 || label[0] != '<' {
		return 0, false
	}
	v, err := strconv.ParseFloat(label[1:], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Get returns the metric with the given name.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Value returns the value of the named counter or gauge (0 if absent).
func (s Snapshot) Value(name string) float64 {
	m, _ := s.Get(name)
	return m.Value
}

// WriteJSON writes the snapshot as an indented JSON array.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
