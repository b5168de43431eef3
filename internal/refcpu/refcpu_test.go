package refcpu

import (
	"math"
	"testing"

	"sarmany/internal/machine"
)

func tinyCache() CacheParams {
	return CacheParams{SizeBytes: 512, Ways: 2, LineBytes: 64} // 4 sets
}

func TestCacheHitAfterFill(t *testing.T) {
	c := newCache(tinyCache())
	if c.access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.access(0x1000) {
		t.Error("warm access missed")
	}
	if !c.access(0x103f) {
		t.Error("same-line access missed")
	}
	if c.access(0x1040) {
		t.Error("next line hit cold")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits %d misses %d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(tinyCache()) // 2 ways, 4 sets: set = line & 3
	// Three lines mapping to set 0: lines 0, 4, 8 (addresses 0, 256, 512).
	c.access(0)
	c.access(256)
	c.access(0) // touch line 0: line 4 is now LRU
	c.access(512)
	if !c.access(0) {
		t.Error("recently used line evicted")
	}
	if c.access(256) {
		t.Error("LRU line survived eviction")
	}
}

func TestCacheRejectsBadParams(t *testing.T) {
	bad := []CacheParams{
		{SizeBytes: 0, Ways: 1, LineBytes: 64},
		{SizeBytes: 512, Ways: 3, LineBytes: 32},   // 16 lines / 3 ways: 5 sets, not pow2
		{SizeBytes: 512, Ways: 2, LineBytes: 100},  // line not pow2
		{SizeBytes: 2048, Ways: 32, LineBytes: 64}, // one set, more ways than a recency order holds
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d accepted", i)
				}
			}()
			newCache(p)
		}()
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(
		CacheParams{SizeBytes: 128, Ways: 2, LineBytes: 64},  // 1 set, 2 ways
		CacheParams{SizeBytes: 256, Ways: 2, LineBytes: 64},  // 2 sets
		CacheParams{SizeBytes: 1024, Ways: 2, LineBytes: 64}, // 8 sets
	)
	if got := h.Access(0, 4); got != ServedMem {
		t.Errorf("cold access served at %v", got)
	}
	if got := h.Access(0, 4); got != ServedL1 {
		t.Errorf("warm access served at %v", got)
	}
	// Evict line 0 from L1 (2 ways, 1 set) using lines 1 and 2, which land
	// in different L2/L3 sets so line 0 survives in the outer levels.
	h.Access(0x40, 4)
	h.Access(0x80, 4)
	if got := h.Access(0, 4); got != ServedL2 {
		t.Errorf("L1-evicted access served at %v, want L2", got)
	}
}

func TestHierarchySpanningAccess(t *testing.T) {
	h := NewHierarchy(tinyCache(), CacheParams{SizeBytes: 1024, Ways: 2, LineBytes: 64},
		CacheParams{SizeBytes: 4096, Ways: 4, LineBytes: 64})
	h.Access(60, 1)
	// 8-byte access spanning lines 0 and 1: line 1 is cold, so worst is MEM.
	if got := h.Access(60, 8); got != ServedMem {
		t.Errorf("spanning access served at %v", got)
	}
}

func TestLevelString(t *testing.T) {
	if ServedL1.String() != "L1" || ServedMem.String() != "MEM" {
		t.Error("level names")
	}
	if Level(9).String() != "Level(9)" {
		t.Error("unknown level name")
	}
}

func TestCPUOperationCosts(t *testing.T) {
	p := I7M620()
	c := New(p)
	c.Charge(machine.Ops{FMA: 10}) // 20 FP ops at FPIPC=1
	c.Charge(machine.Ops{IOp: 25}) // at IntIPC=2.5 -> 10 cycles
	c.Charge(machine.Ops{Div: 1})
	c.Charge(machine.Ops{Sqrt: 1})
	c.Charge(machine.Ops{Trig: 1})
	want := 20/p.FPIPC + 25/p.IntIPC + p.DivCycles + p.SqrtCycles + p.TrigCycles
	if got := c.Cycles(); math.Abs(got-want) > 1e-9 {
		t.Errorf("cycles = %v, want %v", got, want)
	}
}

func TestCPULoadHitVsMiss(t *testing.T) {
	p := I7M620()
	c := New(p)
	buf, err := machine.NewBufC(c.Mem(), 64)
	if err != nil {
		t.Fatal(err)
	}
	buf.Load(c, 0) // cold: DRAM
	cold := c.Cycles()
	buf.Load(c, 0) // warm: L1
	warm := c.Cycles() - cold
	if cold <= warm {
		t.Errorf("cold load %v not slower than warm %v", cold, warm)
	}
	wantCold := p.L1HitCycles + p.MemCycles*(1-p.MissOverlap)
	if math.Abs(cold-wantCold) > 1e-9 {
		t.Errorf("cold load = %v, want %v", cold, wantCold)
	}
	if c.Stats.Served[ServedMem] != 1 || c.Stats.Served[ServedL1] != 1 {
		t.Errorf("served stats %v", c.Stats.Served)
	}
}

func TestCPUStreamingLocality(t *testing.T) {
	// Sequential float32 reads: 15 of 16 per line hit L1.
	c := New(I7M620())
	buf, err := machine.NewBufF(c.Mem(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		buf.Load(c, i)
	}
	hitRate := float64(c.Stats.Served[ServedL1]) / 4096
	if hitRate < 0.93 {
		t.Errorf("streaming L1 hit rate %v", hitRate)
	}
}

func TestCPUWorkingSetBeyondL3(t *testing.T) {
	// A random-stride walk over 16 MB (4x the L3) must mostly miss to DRAM.
	c := New(I7M620())
	buf, err := machine.NewBufC(c.Mem(), 2*1024*1024) // 16 MB
	if err != nil {
		t.Fatal(err)
	}
	n := 20000
	idx := 0
	for i := 0; i < n; i++ {
		idx = (idx + 999983) % (2 * 1024 * 1024) // large prime stride
		buf.Load(c, idx)
	}
	memFrac := float64(c.Stats.Served[ServedMem]) / float64(n)
	if memFrac < 0.8 {
		t.Errorf("DRAM fraction %v for out-of-cache walk", memFrac)
	}
}

func TestSecondsUsesClock(t *testing.T) {
	c := New(I7M620())
	c.Charge(machine.Ops{Flop: 267})
	want := 267 / c.P.FPIPC / 2.67e9
	if math.Abs(c.Seconds()-want) > 1e-15 {
		t.Errorf("Seconds = %v, want %v", c.Seconds(), want)
	}
}
