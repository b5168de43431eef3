package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
)

func TestEventRingBoundsAndOrder(t *testing.T) {
	r := NewEventRing(3)
	for _, m := range []string{"a", "b", "c", "d", "e"} {
		r.Add(m)
	}
	ev := r.Events()
	if len(ev) != 3 || ev[0].Msg != "c" || ev[1].Msg != "d" || ev[2].Msg != "e" {
		t.Fatalf("events = %+v, want tail c,d,e", ev)
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", r.Dropped())
	}

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "2 older events dropped") || !strings.Contains(out, " e\n") {
		t.Errorf("WriteText output:\n%s", out)
	}
}

func TestEventRingNilSafe(t *testing.T) {
	var r *EventRing
	r.Add("x")
	r.Addf("y %d", 1)
	if r.Events() != nil || r.Dropped() != 0 {
		t.Error("nil ring not a no-op")
	}
}

// TestEventRingConcurrent exercises the ring from many goroutines; run
// under -race this pins the locking discipline the heartbeat relies on.
func TestEventRingConcurrent(t *testing.T) {
	r := NewEventRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Addf("g%d event %d", g, i)
				_ = r.Events()
			}
		}(g)
	}
	wg.Wait()
	if n := len(r.Events()); n != 64 {
		t.Errorf("len = %d, want full ring 64", n)
	}
	if r.Dropped() != 8*100-64 {
		t.Errorf("dropped = %d, want %d", r.Dropped(), 8*100-64)
	}
}

// TestEventRingConcurrentReaders mixes writers with every read-side
// method (Events, Dropped, WriteText) so -race pins that readers never
// observe a torn ring while the writers wrap it.
func TestEventRingConcurrentReaders(t *testing.T) {
	r := NewEventRing(32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Addf("g%d event %d", g, i)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := len(r.Events()); got > 32 {
					t.Errorf("len = %d outside [0, 32]", got)
				}
				_ = r.Dropped()
				if err := r.WriteText(io.Discard); err != nil {
					t.Errorf("WriteText: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(r.Events()); n != 32 {
		t.Errorf("len = %d, want full ring 32", n)
	}
	if r.Dropped() != 4*200-32 {
		t.Errorf("dropped = %d, want %d", r.Dropped(), 4*200-32)
	}
}
