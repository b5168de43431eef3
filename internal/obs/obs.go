// Package obs is the observability layer of the machine models: a
// low-overhead structured event tracer and a metrics registry, with
// exporters for Chrome/Perfetto trace_event JSON, a plain-text timeline,
// and metric snapshots in JSON/CSV.
//
// The tracer is designed around the simulator's execution model: every
// simulated core runs on its own goroutine and owns exactly one Track, so
// span recording is lock-free — a Track is written by a single goroutine
// and read only after the run completes. Each Track is a fixed-capacity
// ring buffer of spans; when a run emits more spans than the capacity, the
// oldest spans are dropped (and counted), never reallocated.
//
// Tracing is strictly opt-in and free when off: all Track methods are
// nil-receiver safe, so an uninstrumented core carries a nil *Track and
// every record call is a no-op — no allocation, no simulated-cycle change
// (the tracer only observes timestamps, it never advances them).
package obs

import (
	"sort"
	"sync"
)

// Kind classifies a span: what the track's owner was doing during the
// interval. The stall kinds mirror the per-cause stall counters of the
// Epiphany core model; KindStallMem is the reference CPU's cache-miss
// stall; the phase kinds label barrier-delimited SPMD phases by what bound
// them.
type Kind uint8

const (
	// KindCompute is a committed dual-issue compute window.
	KindCompute Kind = iota
	// KindStallRead is a stalling read from another core's local memory.
	KindStallRead
	// KindStallExt is a stalling off-chip (eLink + SDRAM) read.
	KindStallExt
	// KindStallDMA is time spent waiting on a DMA completion.
	KindStallDMA
	// KindStallLink is back-pressure or empty-buffer waiting on a
	// core-to-core streaming link.
	KindStallLink
	// KindStallBarrier is time spent waiting at a barrier (including the
	// off-chip channel drain the barrier settles).
	KindStallBarrier
	// KindStallMem is a cache-miss stall on the reference CPU.
	KindStallMem
	// KindPhaseCompute is a barrier phase bound by the slowest core.
	KindPhaseCompute
	// KindPhaseBandwidth is a barrier phase bound by the off-chip channel
	// drain.
	KindPhaseBandwidth
	// KindService is ext-channel service time consumed by a phase.
	KindService
	// KindFaultLink is an injected link-transfer failure: the timeout plus
	// backoff a producer pays before retransmitting a block.
	KindFaultLink
	// KindFaultDMA is an injected DMA completion timeout delaying a
	// descriptor's finish time.
	KindFaultDMA
	numKinds
)

var kindNames = [numKinds]string{
	KindCompute:        "compute",
	KindStallRead:      "stall.read",
	KindStallExt:       "stall.ext",
	KindStallDMA:       "stall.dma",
	KindStallLink:      "stall.link",
	KindStallBarrier:   "stall.barrier",
	KindStallMem:       "stall.mem",
	KindPhaseCompute:   "phase.compute",
	KindPhaseBandwidth: "phase.bandwidth",
	KindService:        "service",
	KindFaultLink:      "fault.link",
	KindFaultDMA:       "fault.dma",
}

// String returns the kind's metric-style name (e.g. "stall.ext").
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one timestamped interval on a track. Times are in the owning
// machine's clock cycles (fractional cycles allowed).
type Span struct {
	Kind       Kind
	Start, End float64
}

// Duration returns the span length in cycles.
func (s Span) Duration() float64 { return s.End - s.Start }

// Edge is a cross-track dependency: the owning track could not progress
// past cycle At until Src reached cycle SrcTime — a link-block arrival, a
// freed back-pressure slot, or any other handoff between execution
// contexts. Edges are what let a post-hoc analyzer (internal/profile)
// follow the critical path off a stalled consumer and onto the producer
// that kept it waiting.
type Edge struct {
	Src     *Track
	SrcTime float64 // cycle on Src at which the dependency was satisfied
	At      float64 // cycle on the owning track at which it unblocked
}

// Track is the span stream of one execution context (one simulated core,
// or a synthetic context such as the chip's phase timeline). It must be
// written by a single goroutine; reads are only safe after that goroutine
// has finished (the simulator guarantees this by exporting after Run
// returns). A nil *Track is a valid no-op sink.
type Track struct {
	name     string
	pid, tid int

	spans   []Span // ring storage, preallocated to capacity
	head    int    // index of the oldest span once the ring has wrapped
	dropped uint64 // spans overwritten after the ring filled
	deps    []Edge // incoming cross-track dependencies, in recording order
}

// Span records one interval. Zero- and negative-length spans are ignored.
// Recording never allocates once the track exists: the ring storage is
// preallocated, and a full ring overwrites its oldest entry.
func (t *Track) Span(kind Kind, start, end float64) {
	if t == nil || end <= start {
		return
	}
	s := Span{Kind: kind, Start: start, End: end}
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
		return
	}
	t.spans[t.head] = s
	t.head++
	if t.head == len(t.spans) {
		t.head = 0
	}
	t.dropped++
}

// Dep records that the track's owner was blocked until src reached cycle
// srcTime and unblocked at local cycle at. Like Span it must be called by
// the owning goroutine only; src is stored by reference and never written
// through. A nil receiver or nil src is a no-op.
func (t *Track) Dep(src *Track, srcTime, at float64) {
	if t == nil || src == nil {
		return
	}
	t.deps = append(t.deps, Edge{Src: src, SrcTime: srcTime, At: at})
}

// Deps returns the recorded incoming dependency edges in recording order.
func (t *Track) Deps() []Edge {
	if t == nil {
		return nil
	}
	return t.deps
}

// Name returns the track's display name ("" for a nil track).
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Dropped returns how many spans were overwritten because the ring filled.
func (t *Track) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Len returns the number of retained spans.
func (t *Track) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns the retained spans in chronological (recording) order.
func (t *Track) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.spans))
	out = append(out, t.spans[t.head:]...)
	out = append(out, t.spans[:t.head]...)
	return out
}

// DefaultCapacity is the per-track span ring capacity used unless
// SetCapacity overrides it.
const DefaultCapacity = 1 << 14

// Tracer collects the tracks of one simulation. Track creation is
// synchronized (machines attach tracks from whatever goroutine constructs
// them); span recording itself is per-track and lock-free.
type Tracer struct {
	clockHz float64

	mu     sync.Mutex
	cap    int
	tracks []*Track
	procs  map[int]string
	order  []int // pids in registration order
}

// NewTracer returns a tracer for machines clocked at clockHz (used to
// convert cycle timestamps to wall time in exporters). A non-positive
// clockHz defaults to 1 GHz.
func NewTracer(clockHz float64) *Tracer {
	if clockHz <= 0 {
		clockHz = 1e9
	}
	return &Tracer{
		clockHz: clockHz,
		cap:     DefaultCapacity,
		procs:   map[int]string{},
	}
}

// ClockHz returns the cycle-to-seconds conversion rate.
func (tr *Tracer) ClockHz() float64 { return tr.clockHz }

// SetCapacity sets the span ring capacity of tracks created afterwards.
func (tr *Tracer) SetCapacity(n int) {
	if n < 1 {
		n = 1
	}
	tr.mu.Lock()
	tr.cap = n
	tr.mu.Unlock()
}

// NameProcess registers a display name for a process (pid) group — e.g.
// the chip a set of core tracks belongs to. The first name registered for
// a pid wins. Safe on a nil tracer.
func (tr *Tracer) NameProcess(pid int, name string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, ok := tr.procs[pid]; !ok {
		tr.procs[pid] = name
		tr.order = append(tr.order, pid)
	}
}

// NewTrack creates and registers a track in process pid with thread id tid
// and the given display name. A nil tracer returns a nil (no-op) track, so
// machines can attach unconditionally.
func (tr *Tracer) NewTrack(pid, tid int, name string) *Track {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := &Track{name: name, pid: pid, tid: tid, spans: make([]Span, 0, tr.cap)}
	tr.tracks = append(tr.tracks, t)
	return t
}

// Tracks returns the registered tracks in creation order.
func (tr *Tracer) Tracks() []*Track {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*Track, len(tr.tracks))
	copy(out, tr.tracks)
	return out
}

// Dropped returns the total spans dropped across all tracks.
func (tr *Tracer) Dropped() uint64 {
	var n uint64
	for _, t := range tr.Tracks() {
		n += t.Dropped()
	}
	return n
}

// PublishMetrics records the tracer's span accounting into reg: the total
// retained span count ("obs.spans.recorded"), the aggregate overflow
// counter ("obs.spans.dropped"), and one "obs.spans.dropped.<track>"
// counter per track that overflowed its ring — so a metrics snapshot
// makes silent drop-oldest overflow visible instead of quietly truncating
// the trace. Safe on a nil tracer or nil registry.
func (tr *Tracer) PublishMetrics(reg *Registry) {
	if tr == nil || reg == nil {
		return
	}
	recorded := reg.Counter("obs.spans.recorded")
	dropped := reg.Counter("obs.spans.dropped")
	for _, t := range tr.Tracks() {
		recorded.Add(float64(t.Len()))
		if d := t.Dropped(); d > 0 {
			dropped.Add(float64(d))
			reg.Counter("obs.spans.dropped." + t.Name()).Add(float64(d))
		}
	}
}

// processes returns the registered (pid, name) pairs in registration
// order, sorted by pid for export determinism.
func (tr *Tracer) processes() []struct {
	pid  int
	name string
} {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]struct {
		pid  int
		name string
	}, 0, len(tr.order))
	for _, pid := range tr.order {
		out = append(out, struct {
			pid  int
			name string
		}{pid, tr.procs[pid]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pid < out[j].pid })
	return out
}
