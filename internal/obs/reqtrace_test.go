package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceparent formats a W3C `traceparent` header value, the form a
// caller propagating its trace sends.
func traceparent(id TraceID, span SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + id.String() + "-" + span.String() + "-" + flags
}

func TestTraceparentRoundTrip(t *testing.T) {
	id, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	var span SpanID
	copy(span[:], []byte{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7})
	h := traceparent(id, span, true)
	if h != "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" {
		t.Fatalf("traceparent = %q", h)
	}
	gid, gparent, sampled, ok := ParseTraceparent(h)
	if !ok || gid != id || gparent != span || !sampled {
		t.Fatalf("round trip: id=%v parent=%v sampled=%v ok=%v", gid, gparent, sampled, ok)
	}
	if _, _, sampled, ok := ParseTraceparent(traceparent(id, span, false)); !ok || sampled {
		t.Fatalf("unsampled round trip: sampled=%v ok=%v", sampled, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // reserved version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
	// Uppercase hex is tolerated on input (case-insensitive parse).
	if _, _, _, ok := ParseTraceparent("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01"); !ok {
		t.Error("uppercase traceparent rejected")
	}
}

func TestTraceIDParse(t *testing.T) {
	if _, ok := ParseTraceID("short"); ok {
		t.Error("short id accepted")
	}
	if _, ok := ParseTraceID(strings.Repeat("0", 32)); ok {
		t.Error("zero id accepted")
	}
	id := NewTraceID()
	got, ok := ParseTraceID(id.String())
	if !ok || got != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", id.String(), got, ok)
	}
	if id.IsZero() {
		t.Error("NewTraceID returned zero")
	}
	if id2 := NewTraceID(); id2 == id {
		t.Error("two NewTraceID calls collided")
	}
}

func TestReqTraceTree(t *testing.T) {
	tr := NewReqTrace(TraceID{1})
	root := tr.StartSpan("request")
	root.SetAttr("exp", "gbp")
	adm := root.Child("admission")
	adm.End()
	exec := root.Child("execute")
	look := exec.Child("cache.lookup")
	look.SetAttr("hit", "false")
	look.End()
	exec.End()
	root.End()

	doc := tr.Doc()
	if doc.TraceID != tr.TraceID().String() {
		t.Fatalf("doc trace id %q != %q", doc.TraceID, tr.TraceID())
	}
	if len(doc.Spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(doc.Spans), doc.Spans)
	}
	byName := map[string]TraceSpan{}
	for _, s := range doc.Spans {
		byName[s.Name] = s
	}
	if byName["request"].Parent != "" {
		t.Errorf("root has parent %q", byName["request"].Parent)
	}
	for _, name := range []string{"admission", "execute"} {
		if byName[name].Parent != byName["request"].ID {
			t.Errorf("%s parent = %q, want root %q", name, byName[name].Parent, byName["request"].ID)
		}
	}
	if byName["cache.lookup"].Parent != byName["execute"].ID {
		t.Errorf("cache.lookup parent = %q, want execute", byName["cache.lookup"].Parent)
	}
	if byName["cache.lookup"].Attrs["hit"] != "false" {
		t.Errorf("cache.lookup attrs = %v", byName["cache.lookup"].Attrs)
	}
	// Children must lie inside the root's wall-clock window.
	rootEnd := byName["request"].StartUnixNs + byName["request"].DurNs
	for _, name := range []string{"admission", "execute"} {
		s := byName[name]
		if s.StartUnixNs < byName["request"].StartUnixNs || s.StartUnixNs+s.DurNs > rootEnd {
			t.Errorf("%s [%d, +%d] outside root window", name, s.StartUnixNs, s.DurNs)
		}
	}

	var sb strings.Builder
	if err := doc.WriteTree(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"request", "├─ admission", "└─ execute", "└─ cache.lookup", "hit=false", "ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
}

func TestReqTraceRemoteParent(t *testing.T) {
	tr := NewReqTrace(TraceID{2})
	tr.SetRemoteParent(SpanID{0xab})
	root := tr.StartSpan("request")
	root.End()
	doc := tr.Doc()
	if doc.Spans[0].Parent != (SpanID{0xab}).String() {
		t.Fatalf("root parent = %q, want remote %q", doc.Spans[0].Parent, SpanID{0xab})
	}
	// The remote parent is not a span in the doc, so the tree renderer
	// must still treat the root as a root.
	var sb strings.Builder
	if err := doc.WriteTree(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "request") {
		t.Fatalf("remote-parented root not rendered:\n%s", sb.String())
	}
}

func TestReqTraceNilSafe(t *testing.T) {
	var tr *ReqTrace
	if !tr.TraceID().IsZero() {
		t.Error("nil trace not a no-op")
	}
	tr.SetRemoteParent(SpanID{1})
	s := tr.StartSpan("x")
	if s != nil {
		t.Fatal("nil trace StartSpan != nil")
	}
	s.SetAttr("k", "v")
	if c := s.Child("y"); c != nil {
		t.Fatal("nil span Child != nil")
	}
	s.End()
	s.AttachSim(NewTracer(1e9), time.Now())
	if doc := tr.Doc(); doc.TraceID != "" || len(doc.Spans) != 0 {
		t.Errorf("nil trace doc = %+v", doc)
	}
}

func TestReqSpanEndIdempotent(t *testing.T) {
	tr := NewReqTrace(TraceID{3})
	s := tr.StartSpan("once")
	s.End()
	s.End()
	s.SetAttr("late", "ignored")
	if n := len(tr.Doc().Spans); n != 1 {
		t.Fatalf("double End recorded %d spans", n)
	}
	if tr.Doc().Spans[0].Attrs["late"] != "" {
		t.Error("SetAttr after End took effect")
	}
}

func TestReqTraceConcurrent(t *testing.T) {
	tr := NewReqTrace(TraceID{4})
	root := tr.StartSpan("request")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child("stage")
				c.SetAttr("g", "x")
				c.End()
				_ = tr.Doc()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	doc := tr.Doc()
	if len(doc.Spans)+int(doc.Dropped) != 8*50+1 {
		t.Fatalf("spans %d + dropped %d != %d", len(doc.Spans), doc.Dropped, 8*50+1)
	}
	ids := map[string]bool{}
	for _, s := range doc.Spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %q", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestReqTraceCapacityBound(t *testing.T) {
	tr := NewReqTrace(TraceID{5})
	root := tr.StartSpan("request")
	for i := 0; i < DefaultReqSpanCapacity+100; i++ {
		c := root.Child("s")
		c.End()
	}
	root.End()
	doc := tr.Doc()
	if len(doc.Spans) != DefaultReqSpanCapacity {
		t.Fatalf("retained %d spans, want %d", len(doc.Spans), DefaultReqSpanCapacity)
	}
	if doc.Dropped != 101 { // 100 excess children + the root ended last
		t.Fatalf("dropped = %d, want 101", doc.Dropped)
	}
}

func TestTraceContextPlumbing(t *testing.T) {
	if TraceFromContext(context.Background()) != nil || SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context carries a trace")
	}
	tr := NewReqTrace(TraceID{6})
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
	s := tr.StartSpan("x")
	ctx = ContextWithSpan(ctx, s)
	if SpanFromContext(ctx) != s {
		t.Fatal("span did not round-trip through context")
	}
	// Nil values leave the context untouched instead of storing nils.
	if ContextWithTrace(ctx, nil) != ctx || ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("nil attach did not return the original context")
	}
}

func TestAttachSim(t *testing.T) {
	sim := NewTracer(1e9) // 1 cycle = 1ns
	track := sim.NewTrack(0, 0, "core0")
	track.Span(KindCompute, 0, 1000)
	track.Span(KindStallExt, 1000, 1500)
	empty := sim.NewTrack(0, 1, "core1")
	_ = empty

	tr := NewReqTrace(TraceID{7})
	root := tr.StartSpan("execute")
	base := time.Unix(100, 0)
	root.AttachSim(sim, base)
	root.End()

	doc := tr.Doc()
	var simSpan TraceSpan
	for _, s := range doc.Spans {
		if s.Name == "sim.core0" {
			simSpan = s
		}
		if s.Name == "sim.core1" {
			t.Error("empty track produced a span")
		}
	}
	if simSpan.Name == "" {
		t.Fatalf("no sim.core0 span in %+v", doc.Spans)
	}
	if simSpan.Parent != root.id.String() {
		t.Errorf("sim span parent = %q, want %q", simSpan.Parent, root.id)
	}
	if simSpan.StartUnixNs != base.UnixNano() {
		t.Errorf("sim span start = %d, want %d", simSpan.StartUnixNs, base.UnixNano())
	}
	if simSpan.DurNs != 1500 { // 1500 cycles at 1 GHz = 1500ns
		t.Errorf("sim span dur = %dns, want 1500", simSpan.DurNs)
	}
	if simSpan.Attrs["cycles.compute"] != "1000" || simSpan.Attrs["cycles.stall.ext"] != "500" {
		t.Errorf("sim span attrs = %v", simSpan.Attrs)
	}
}

func TestTraceDocWriteTraceEvent(t *testing.T) {
	tr := NewReqTrace(TraceID{8})
	root := tr.StartSpan("request")
	c := root.Child("execute")
	c.SetAttr("cached", "true")
	c.End()
	root.End()

	var sb strings.Builder
	if err := tr.Doc().WriteTraceEvent(&sb); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("invalid trace_event JSON: %v\n%s", err, sb.String())
	}
	// Metadata + 2 spans.
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(parsed.TraceEvents))
	}
	var sawExec bool
	for _, ev := range parsed.TraceEvents {
		if ev["name"] == "execute" {
			sawExec = true
			args := ev["args"].(map[string]any)
			if args["cached"] != "true" {
				t.Errorf("execute args = %v", args)
			}
		}
	}
	if !sawExec {
		t.Error("execute span missing from trace_event output")
	}
}
