package refcpu

import (
	"maps"
	"math/rand/v2"
	"testing"
)

// refCache is the cache model without its fast path: every access walks
// the whole set, and a valid bit marks the filled ways. It is the oracle
// the fast path must match access for access.
type refCache struct {
	ways         int
	lineBits     uint
	setMask      uint64
	tags, age    []uint64
	valid        []bool
	clock        uint64
	Hits, Misses uint64
}

func newRefCache(p CacheParams) *refCache {
	c := newCache(p) // validates p and derives the geometry
	n := len(c.tags)
	return &refCache{ways: p.Ways, lineBits: c.lineBits, setMask: c.setMask,
		tags: make([]uint64, n), age: make([]uint64, n), valid: make([]bool, n)}
}

// access looks up the line containing addr, filling it on a miss (LRU
// victim, an invalid way first). It reports whether the access hit.
func (c *refCache) access(addr uint64) bool {
	c.clock++
	line := addr >> c.lineBits
	base := int(line&c.setMask) * c.ways
	victim := base
	oldest := c.age[base]
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.age[i] = c.clock
			c.Hits++
			return true
		}
		if !c.valid[i] {
			victim = i
			oldest = 0
		} else if c.age[i] < oldest {
			victim = i
			oldest = c.age[i]
		}
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.age[victim] = c.clock
	c.Misses++
	return false
}

// stamps maps every line the reference holds to its LRU stamp.
func (c *refCache) stamps() map[uint64]uint64 {
	m := map[uint64]uint64{}
	for i, ok := range c.valid {
		if ok {
			m[c.tags[i]] = c.age[i]
		}
	}
	return m
}

// stamps maps every line c holds to its LRU stamp.
func (c *cache) stamps() map[uint64]uint64 {
	m := map[uint64]uint64{}
	for i, tag := range c.tags {
		if tag != noLine {
			m[tag] = c.age[i]
		}
	}
	return m
}

// refHierarchy is Hierarchy over refCache levels.
type refHierarchy struct{ L1, L2, L3 *refCache }

func (h *refHierarchy) Access(addr uint32, n int) Level {
	if n <= 0 {
		n = 1
	}
	worst := ServedL1
	lb := h.L1.lineBits
	for line := uint64(addr) >> lb; line <= (uint64(addr)+uint64(n)-1)>>lb; line++ {
		a := line << lb
		served := ServedMem
		switch {
		case h.L1.access(a):
			served = ServedL1
		case h.L2.access(a):
			served = ServedL2
		case h.L3.access(a):
			served = ServedL3
		}
		worst = max(worst, served)
	}
	return worst
}

// access is one replayed access: n bytes at addr.
type access struct {
	addr uint32
	n    int
}

// cacheStreams are seeded address streams that exercise the fast path
// and the walk: interleaved sequential streams, same-set conflict
// strides at every level, accesses spanning two or more lines, and
// working sets larger than the L3.
func cacheStreams(p Params, rng *rand.Rand) map[string][]access {
	const base = 0x10000000
	span := func(c CacheParams) uint32 { return uint32(c.SizeBytes / c.Ways) } // bytes between same-set lines
	out := map[string][]access{}

	// FFBP's pattern: two load streams and a store stream advancing
	// together, each jumping now and then to a random row.
	var s []access
	ptr := [3]uint32{base, base + 3<<20, base + 7<<20}
	for i := 0; i < 200000; i++ {
		k := i % 3
		if rng.IntN(500) == 0 {
			ptr[k] = base + uint32(rng.IntN(8<<20))&^7
		}
		s = append(s, access{ptr[k], 8})
		ptr[k] += 8
	}
	out["interleaved"] = s

	// Lines mapping to one set of each level, a few more than its ways,
	// revisited in random order: LRU decides every hit.
	s = nil
	for _, c := range []CacheParams{p.L1, p.L2, p.L3} {
		lines := c.Ways + 1 + rng.IntN(c.Ways)
		for i := 0; i < 40000; i++ {
			s = append(s, access{base + uint32(rng.IntN(lines))*span(c) + uint32(rng.IntN(64)), 4})
		}
	}
	out["conflict"] = s

	// Unaligned accesses that straddle line boundaries.
	s = nil
	for i := 0; i < 100000; i++ {
		line := uint32(rng.IntN(1 << 12))
		s = append(s, access{base + line*64 + 64 - uint32(1+rng.IntN(8)), 8 + rng.IntN(120)})
	}
	out["spanning"] = s

	// Twice the L3, swept and then sampled at random.
	s = nil
	big := 2 * p.L3.SizeBytes
	for a := 0; a < big; a += 32 {
		s = append(s, access{base + uint32(a), 8})
	}
	for i := 0; i < 200000; i++ {
		s = append(s, access{base + uint32(rng.IntN(big))&^7, 8})
	}
	out["beyond-l3"] = s
	return out
}

// TestCacheMatchesReferenceWalk replays every stream through Hierarchy
// and the reference walk: each access must be served at the same level,
// and every level must end with the same hits and misses and hold the
// same lines with the same LRU stamps. The stamps catch a hit that skips
// its age update even where no later hit or miss shows it.
func TestCacheMatchesReferenceWalk(t *testing.T) {
	p := I7M620()
	for name, stream := range cacheStreams(p, rand.New(rand.NewPCG(1, 2))) {
		t.Run(name, func(t *testing.T) {
			h := NewHierarchy(p.L1, p.L2, p.L3)
			ref := &refHierarchy{newRefCache(p.L1), newRefCache(p.L2), newRefCache(p.L3)}
			for i, a := range stream {
				if got, want := h.Access(a.addr, a.n), ref.Access(a.addr, a.n); got != want {
					t.Fatalf("access %d (%d bytes at %#x) served by %v, reference %v", i, a.n, a.addr, got, want)
				}
			}
			got := [3]*cache{h.L1, h.L2, h.L3}
			want := [3]*refCache{ref.L1, ref.L2, ref.L3}
			for lvl := range got {
				g, w := got[lvl], want[lvl]
				if g.Hits != w.Hits || g.Misses != w.Misses {
					t.Errorf("L%d: %d hits %d misses, reference %d and %d", lvl+1, g.Hits, g.Misses, w.Hits, w.Misses)
				}
				if !maps.Equal(g.stamps(), w.stamps()) {
					t.Errorf("L%d holds other lines or LRU stamps than the reference", lvl+1)
				}
			}
		})
	}
}
