package refcpu

import (
	"fmt"
	"math/bits"
)

// CacheParams describes one level of a set-associative cache.
type CacheParams struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// cache is a set-associative LRU cache over physical line addresses. Each
// set keeps its ways in recency order in one uint64, a 4-bit way index per
// rank with the most recent way at rank 0, so a cache has at most 16 ways.
// An empty way holds the tag noLine, which no address maps to. Rank r
// starts with way r, so the empty ways sit at the least recent end and
// fill before any line is evicted.
type cache struct {
	p        CacheParams
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*ways entries
	order    []uint64 // per set, its ways by recency

	Hits, Misses uint64
}

const (
	noLine = ^uint64(0)         // the tag of an empty way
	nibble = 0x1111111111111111 // 1 in every rank
)

func newCache(p CacheParams) *cache {
	if p.LineBytes <= 0 || p.SizeBytes <= 0 || p.Ways <= 0 || p.Ways > 16 {
		panic(fmt.Sprintf("refcpu: invalid cache params %+v", p))
	}
	lines := p.SizeBytes / p.LineBytes
	sets := lines / p.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("refcpu: cache must have a power-of-two set count, got %d", sets))
	}
	lb := uint(0)
	for 1<<lb < p.LineBytes {
		lb++
	}
	if 1<<lb != p.LineBytes {
		panic("refcpu: line size must be a power of two")
	}
	c := &cache{
		p:        p,
		lineBits: lb,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*p.Ways),
		order:    make([]uint64, sets),
	}
	for i := range c.tags {
		c.tags[i] = noLine
	}
	for i := range c.order {
		c.order[i] = 0xfedcba9876543210
	}
	return c
}

// recent reports whether line sits in the most recent way of its set,
// counting the hit if it does; on most L1 accesses of FFBP it does.
func (c *cache) recent(line uint64) bool {
	set := line & c.setMask
	if c.tags[int(set)*c.p.Ways+int(c.order[set]&0xf)] == line {
		c.Hits++
		return true
	}
	return false
}

// access looks up the line containing addr, filling it on a miss. It
// reports whether the access hit.
//
// A hit moves its way to rank 0, so a hit at rank 0 changes only Hits,
// and a miss fills the way at the least recent rank and moves it there:
// hits, misses and each set's lines in recency order equal those of a
// walk with valid bits and LRU stamps.
func (c *cache) access(addr uint64) bool {
	line := addr >> c.lineBits
	set := line & c.setMask
	base := int(set) * c.p.Ways
	o := c.order[set]
	for w, tag := range c.tags[base : base+c.p.Ways] {
		if tag == line {
			// The lowest zero nibble of x is the rank that holds w.
			x := o ^ uint64(w)*nibble
			rank := bits.TrailingZeros64((x-nibble)&^x&(8*nibble)) / 4
			c.order[set] = toFront(o, uint(rank))
			c.Hits++
			return true
		}
	}
	lru := uint(c.p.Ways - 1)
	c.tags[base+int(o>>(4*lru)&0xf)] = line
	c.order[set] = toFront(o, lru)
	c.Misses++
	return false
}

// toFront moves the way at rank k of the recency order o to rank 0 and
// the ways at ranks 0 to k-1 up one rank.
func toFront(o uint64, k uint) uint64 {
	keep := ^uint64(0) << (4*k + 4) // the ranks above k
	return o&keep | (o<<4)&^keep | o>>(4*k)&0xf
}

// Hierarchy is a three-level inclusive cache hierarchy in front of DRAM.
type Hierarchy struct {
	L1, L2, L3 *cache
}

// NewHierarchy builds a hierarchy from the three level parameter sets.
func NewHierarchy(l1, l2, l3 CacheParams) *Hierarchy {
	return &Hierarchy{L1: newCache(l1), L2: newCache(l2), L3: newCache(l3)}
}

// Level identifies where an access was served.
type Level int

// Cache service levels, nearest first.
const (
	ServedL1 Level = iota
	ServedL2
	ServedL3
	ServedMem
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case ServedL1:
		return "L1"
	case ServedL2:
		return "L2"
	case ServedL3:
		return "L3"
	case ServedMem:
		return "MEM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Access walks an n-byte access at addr through the hierarchy and returns
// the deepest level that had to serve any of its lines. An access within
// one line that the most recent way of its L1 set holds is served there
// before the walk.
func (h *Hierarchy) Access(addr uint32, n int) Level {
	if n <= 0 {
		n = 1
	}
	lb := h.L1.lineBits
	first := uint64(addr) >> lb
	last := (uint64(addr) + uint64(n) - 1) >> lb
	if first == last && h.L1.recent(first) {
		return ServedL1
	}
	worst := ServedL1
	for line := first; line <= last; line++ {
		a := line << lb
		var served Level
		switch {
		case h.L1.access(a):
			served = ServedL1
		case h.L2.access(a):
			served = ServedL2
		case h.L3.access(a):
			served = ServedL3
		default:
			served = ServedMem
		}
		if served > worst {
			worst = served
		}
	}
	return worst
}
