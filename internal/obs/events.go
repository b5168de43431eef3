package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultEventCapacity is the capacity NewEventRing gives a ring when
// asked for fewer than one event.
const DefaultEventCapacity = 1024

// Event is one timestamped free-form note in a flight-recorder ring:
// a heartbeat sample, a lifecycle marker, a warning. Unlike spans, events
// carry wall-clock time — they describe the host-side progress of a
// simulation, not simulated cycles.
type Event struct {
	Wall time.Time `json:"wall"`
	Msg  string    `json:"msg"`
}

// EventRing is a bounded, concurrency-safe ring buffer of recent events.
// When full it overwrites the oldest entry (and counts the drop), so a
// long run keeps a fixed-size tail of its most recent history — the
// flight-recorder discipline: cheap while everything is fine, and exactly
// what a post-mortem wants when something wedges. A nil *EventRing is a
// valid no-op sink.
type EventRing struct {
	mu      sync.Mutex
	buf     []Event
	head    int // index of the oldest event once the ring has wrapped
	dropped uint64
}

// NewEventRing returns a ring holding at most capacity events
// (DefaultEventCapacity when capacity < 1).
func NewEventRing(capacity int) *EventRing {
	if capacity < 1 {
		capacity = DefaultEventCapacity
	}
	return &EventRing{buf: make([]Event, 0, capacity)}
}

// Add records one event now.
func (r *EventRing) Add(msg string) {
	if r == nil {
		return
	}
	e := Event{Wall: time.Now(), Msg: msg}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
}

// Addf records one formatted event now.
func (r *EventRing) Addf(format string, args ...any) {
	if r == nil {
		return
	}
	r.Add(fmt.Sprintf(format, args...))
}

// Events returns the retained events oldest-first.
func (r *EventRing) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Dropped returns how many events were overwritten because the ring
// filled.
func (r *EventRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// WriteText renders the retained events one per line with microsecond
// wall-clock timestamps, noting up front how many older events the ring
// dropped.
func (r *EventRing) WriteText(w io.Writer) error {
	events := r.Events()
	if n := r.Dropped(); n > 0 {
		if _, err := fmt.Fprintf(w, "(%d older events dropped by the ring)\n", n); err != nil {
			return err
		}
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%s %s\n", e.Wall.Format("15:04:05.000000"), e.Msg); err != nil {
			return err
		}
	}
	return nil
}
