package obs

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the request-scoped (wall-clock) half of the tracing
// story. The Tracer above lives in the cycle domain of one simulated
// machine; a ReqTrace lives in the wall-clock domain of one serving
// request and stitches together every stage the request crosses —
// HTTP admission, queue wait, batch formation, sweep cache lookup,
// execution, ledger write — into a single span tree identified by a
// W3C-compatible 128-bit trace ID. Like the Tracer, everything here is
// nil-receiver safe: an unsampled request carries a nil *ReqTrace and
// every span operation is a no-op.

// TraceID is a 128-bit W3C Trace Context trace identifier.
type TraceID [16]byte

// NewTraceID returns a random, non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	for isZero(id[:]) {
		if _, err := rand.Read(id[:]); err != nil {
			// crypto/rand never fails on supported platforms; fall back
			// to a time-derived ID rather than returning the forbidden
			// all-zero value.
			binary.BigEndian.PutUint64(id[:8], uint64(time.Now().UnixNano()))
			binary.BigEndian.PutUint64(id[8:], uint64(time.Now().UnixNano())^0x9e3779b97f4a7c15)
		}
	}
	return id
}

// String returns the 32-character lowercase hex form.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the all-zero (invalid) value.
func (id TraceID) IsZero() bool { return isZero(id[:]) }

// ParseTraceID parses a 32-character hex trace ID; ok is false for
// malformed or all-zero input (the W3C spec forbids zero IDs).
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(strings.ToLower(s))); err != nil {
		return TraceID{}, false
	}
	if id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// SpanID is a 64-bit W3C Trace Context span (parent) identifier.
type SpanID [8]byte

// String returns the 16-character lowercase hex form.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the all-zero (invalid) value.
func (id SpanID) IsZero() bool { return isZero(id[:]) }

func isZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// ParseTraceparent parses a W3C `traceparent` header
// (version-traceid-spanid-flags, e.g.
// "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01").
// It returns the trace ID, the caller's span ID (the parent of
// whatever span the receiver starts), and whether the caller sampled
// the trace. ok is false for anything malformed, for zero IDs, and
// for the reserved version ff.
func ParseTraceparent(h string) (id TraceID, parent SpanID, sampled, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[3]) != 2 {
		return TraceID{}, SpanID{}, false, false
	}
	ver, err := hex.DecodeString(strings.ToLower(parts[0]))
	if err != nil || ver[0] == 0xff {
		return TraceID{}, SpanID{}, false, false
	}
	id, idOK := ParseTraceID(parts[1])
	if !idOK {
		return TraceID{}, SpanID{}, false, false
	}
	if len(parts[2]) != 16 {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(parent[:], []byte(strings.ToLower(parts[2]))); err != nil || parent.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	flags, err := hex.DecodeString(strings.ToLower(parts[3]))
	if err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	return id, parent, flags[0]&0x01 != 0, true
}

// DefaultReqSpanCapacity bounds how many finished spans one request
// trace retains; spans ended past the bound are counted as dropped.
const DefaultReqSpanCapacity = 512

// ReqTrace collects the wall-clock span tree of one request. It is
// safe for concurrent use (a request's spans end on the HTTP
// goroutine, the batcher goroutine, and sweep workers). A nil
// *ReqTrace is a valid no-op sink — the unsampled-request fast path.
type ReqTrace struct {
	id TraceID

	mu      sync.Mutex
	next    uint64 // span-ID counter; sequential, unique within the trace
	remote  SpanID // inbound traceparent span, parent of root spans
	spans   []TraceSpan
	cap     int
	dropped uint64
}

// NewReqTrace returns a trace collector for the given ID (a zero ID is
// replaced with a fresh random one).
func NewReqTrace(id TraceID) *ReqTrace {
	if id.IsZero() {
		id = NewTraceID()
	}
	return &ReqTrace{id: id, cap: DefaultReqSpanCapacity}
}

// SetRemoteParent records the caller's span ID from an inbound
// traceparent header; root spans started afterwards are parented to it
// so the exported tree splices under the caller's trace. Nil-safe.
func (t *ReqTrace) SetRemoteParent(id SpanID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.remote = id
	t.mu.Unlock()
}

// TraceID returns the trace identifier (zero for a nil trace).
func (t *ReqTrace) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// StartSpan opens a root-level span (parented to the inbound remote
// span, if any). Nil-safe: a nil trace returns a nil no-op span.
func (t *ReqTrace) StartSpan(name string) *ReqSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	parent := t.remote
	id := t.nextIDLocked()
	t.mu.Unlock()
	return &ReqSpan{tr: t, id: id, parent: parent, name: name, start: time.Now()}
}

func (t *ReqTrace) nextIDLocked() SpanID {
	t.next++
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.next)
	return id
}

// add records one finished span, honoring the capacity bound.
func (t *ReqTrace) add(s TraceSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.cap {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// Doc snapshots the finished spans as an exportable TraceDoc, sorted
// by start time (ties broken by span ID, which is monotonic in span
// creation order). Spans still open are not included — end every span
// before exporting. Nil-safe: a nil trace yields a zero doc.
func (t *ReqTrace) Doc() TraceDoc {
	if t == nil {
		return TraceDoc{}
	}
	t.mu.Lock()
	doc := TraceDoc{
		TraceID: t.id.String(),
		Dropped: t.dropped,
		Spans:   append([]TraceSpan(nil), t.spans...),
	}
	t.mu.Unlock()
	sort.SliceStable(doc.Spans, func(i, j int) bool {
		if doc.Spans[i].StartUnixNs != doc.Spans[j].StartUnixNs {
			return doc.Spans[i].StartUnixNs < doc.Spans[j].StartUnixNs
		}
		return doc.Spans[i].ID < doc.Spans[j].ID
	})
	return doc
}

// ReqSpan is one open wall-clock span. Methods are safe on a nil
// receiver and for concurrent use; End is idempotent (the first call
// wins).
type ReqSpan struct {
	tr     *ReqTrace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]string
	ended bool
}

// Child opens a sub-span. Nil-safe: a nil parent returns nil.
func (s *ReqSpan) Child(name string) *ReqSpan {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	id := t.nextIDLocked()
	t.mu.Unlock()
	return &ReqSpan{tr: t, id: id, parent: s.id, name: name, start: time.Now()}
}

// SetAttr attaches a key=value annotation (last write per key wins).
func (s *ReqSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = value
}

// End closes the span and records it into the trace. Calling End more
// than once records the span once, at the first call's time.
func (s *ReqSpan) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	rec := TraceSpan{
		ID:          s.id.String(),
		Name:        s.name,
		StartUnixNs: s.start.UnixNano(),
		DurNs:       now.Sub(s.start).Nanoseconds(),
		Attrs:       attrs,
	}
	if !s.parent.IsZero() {
		rec.Parent = s.parent.String()
	}
	s.tr.add(rec)
}

// AttachSim splices a completed simulator trace into the request tree
// as children of s: one child span per simulator track, covering the
// track's busy extent converted from cycles to wall time with the
// tracer's clock and anchored so that cycle 0 coincides with base
// (typically the instant the simulation started). Per-kind cycle
// totals ride along as span attributes, so a request trace shows not
// just that the simulator ran but where its cycles went. Safe on nil
// span and nil tracer.
func (s *ReqSpan) AttachSim(tr *Tracer, base time.Time) {
	if s == nil || tr == nil {
		return
	}
	secPerCycle := 1 / tr.ClockHz()
	for _, track := range tr.Tracks() {
		spans := track.Spans()
		if len(spans) == 0 {
			continue
		}
		first, last := spans[0].Start, spans[0].End
		var kinds [numKinds]float64
		for _, sp := range spans {
			if sp.Start < first {
				first = sp.Start
			}
			if sp.End > last {
				last = sp.End
			}
			kinds[sp.Kind] += sp.Duration()
		}
		t := s.tr
		t.mu.Lock()
		id := t.nextIDLocked()
		t.mu.Unlock()
		rec := TraceSpan{
			ID:          id.String(),
			Parent:      s.id.String(),
			Name:        "sim." + track.Name(),
			StartUnixNs: base.Add(time.Duration(first * secPerCycle * float64(time.Second))).UnixNano(),
			DurNs:       time.Duration((last - first) * secPerCycle * float64(time.Second)).Nanoseconds(),
			Attrs:       map[string]string{"spans": fmt.Sprint(len(spans))},
		}
		for k, cyc := range kinds {
			if cyc > 0 {
				rec.Attrs["cycles."+Kind(k).String()] = fmt.Sprintf("%.0f", cyc)
			}
		}
		t.add(rec)
	}
}

// Context plumbing: the serving stack passes the trace and the current
// span down through context.Context so layers that know nothing about
// each other still stitch one tree.

type traceCtxKey struct{}
type spanCtxKey struct{}

// ContextWithTrace returns a context carrying the request trace.
func ContextWithTrace(ctx context.Context, t *ReqTrace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFromContext returns the request trace carried by ctx, or nil —
// and nil flows harmlessly through every span operation.
func TraceFromContext(ctx context.Context) *ReqTrace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*ReqTrace)
	return t
}

// ContextWithSpan returns a context carrying the current span, making
// it the parent of spans opened further down the stack.
func ContextWithSpan(ctx context.Context, s *ReqSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *ReqSpan {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*ReqSpan)
	return s
}

// TraceSpan is one finished span in exported (ledger/JSON) form.
// Times are integer nanoseconds so ledger diffs treat them as ordinary
// numeric leaves (advisory, like every wall-clock quantity).
type TraceSpan struct {
	ID          string            `json:"id"`
	Parent      string            `json:"parent,omitempty"`
	Name        string            `json:"name"`
	StartUnixNs int64             `json:"start_unix_ns"`
	DurNs       int64             `json:"dur_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// TraceDoc is a whole request trace in exported form: what the serving
// layer embeds in ledger entries and `sarlog trace` renders.
type TraceDoc struct {
	TraceID string      `json:"trace_id"`
	Dropped uint64      `json:"dropped,omitempty"`
	Spans   []TraceSpan `json:"spans"`
}

// sortedAttrs returns "k=v" strings in key order for deterministic
// rendering.
func (s TraceSpan) sortedAttrs() []string {
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k + "=" + s.Attrs[k]
	}
	return out
}

// WriteTree renders the span tree as indented text with per-stage
// durations and attributes — the `sarlog trace` view. Spans whose
// parent is outside the doc (the roots, or children of a remote
// caller's span) print at top level; children sort by start time.
func (d TraceDoc) WriteTree(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace %s · %d spans", d.TraceID, len(d.Spans))
	if d.Dropped > 0 {
		fmt.Fprintf(bw, " · %d dropped", d.Dropped)
	}
	fmt.Fprintln(bw)
	known := make(map[string]bool, len(d.Spans))
	for _, s := range d.Spans {
		known[s.ID] = true
	}
	children := map[string][]TraceSpan{}
	var roots []TraceSpan
	for _, s := range d.Spans {
		if s.Parent != "" && known[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	// Doc() already ordered spans by start; the grouping above kept
	// that order within each sibling list.
	var render func(s TraceSpan, prefix, branch, childPrefix string)
	render = func(s TraceSpan, prefix, branch, childPrefix string) {
		label := prefix + branch + s.Name
		line := fmt.Sprintf("%-36s %10.2fms", label, float64(s.DurNs)/1e6)
		if attrs := s.sortedAttrs(); len(attrs) > 0 {
			line += "  " + strings.Join(attrs, " ")
		}
		fmt.Fprintln(bw, line)
		kids := children[s.ID]
		for i, c := range kids {
			if i == len(kids)-1 {
				render(c, prefix+childPrefix, "└─ ", "   ")
			} else {
				render(c, prefix+childPrefix, "├─ ", "│  ")
			}
		}
	}
	for _, r := range roots {
		render(r, "", "", "")
	}
	return bw.Flush()
}

// WriteTraceEvent writes the request trace in the Chrome trace_event
// JSON format understood by Perfetto, mirroring Tracer.WriteTraceEvent
// for the wall-clock domain: one process named after the trace ID, one
// complete ("ph":"X") event per span with microsecond timestamps
// relative to the earliest span, and attributes in args.
func (d TraceDoc) WriteTraceEvent(w io.Writer) error {
	var t0 int64
	for i, s := range d.Spans {
		if i == 0 || s.StartUnixNs < t0 {
			t0 = s.StartUnixNs
		}
	}
	return writeTraceEvents(w, func(emit func(string)) {
		emit(fmt.Sprintf(`{"ph":"M","pid":1,"name":"process_name","args":{"name":%q}}`,
			"trace "+d.TraceID))
		for _, s := range d.Spans {
			args := fmt.Sprintf(`{"span":%q,"parent":%q`, s.ID, s.Parent)
			for _, kv := range s.sortedAttrs() {
				k, v, _ := strings.Cut(kv, "=")
				args += fmt.Sprintf(`,%q:%q`, k, v)
			}
			args += "}"
			emit(fmt.Sprintf(`{"ph":"X","pid":1,"tid":1,"cat":"request","name":%q,"ts":%.3f,"dur":%.3f,"args":%s}`,
				s.Name, float64(s.StartUnixNs-t0)/1e3, float64(s.DurNs)/1e3, args))
		}
	})
}
