package refcpu

import "fmt"

// CacheParams describes one level of a set-associative cache.
type CacheParams struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// cache is a set-associative LRU cache over physical line addresses. An
// empty way holds the tag noLine, which no address maps to, and age 0,
// older than any filled way.
type cache struct {
	p        CacheParams
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*ways entries
	age      []uint64 // LRU stamps
	last     []int    // per set, the way it touched last
	clock    uint64

	Hits, Misses uint64
}

const noLine = ^uint64(0) // the tag of an empty way

func newCache(p CacheParams) *cache {
	if p.LineBytes <= 0 || p.SizeBytes <= 0 || p.Ways <= 0 {
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
		age:      make([]uint64, sets*p.Ways),
		last:     make([]int, sets),
	}
	for i := range c.tags {
		c.tags[i] = noLine
	}
	return c
}

// access looks up the line containing addr, filling it on a miss (LRU
// victim). It reports whether the access hit.
//
// A line sits in at most one way, so a match in the way its set touched
// last is the hit a walk would find; on most L1 accesses of FFBP it is.
// Otherwise access walks the set's tags and, on a miss, fills its oldest
// way. Which of several empty ways it fills is not observable: hits,
// misses and each line's LRU stamp equal those of a walk with valid bits.
func (c *cache) access(addr uint64) bool {
	c.clock++
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	base := set * c.p.Ways
	if i := base + c.last[set]; c.tags[i] == line {
		c.age[i] = c.clock
		c.Hits++
		return true
	}
	for w, tag := range c.tags[base : base+c.p.Ways] {
		if tag == line {
			c.age[base+w] = c.clock
			c.last[set] = w
			c.Hits++
			return true
		}
	}
	victim := 0
	for w, age := range c.age[base : base+c.p.Ways] {
		if age < c.age[base+victim] {
			victim = w
		}
	}
	c.tags[base+victim] = line
	c.age[base+victim] = c.clock
	c.last[set] = victim
	c.Misses++
	return false
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
// the deepest level that had to serve any of its lines.
func (h *Hierarchy) Access(addr uint32, n int) Level {
	if n <= 0 {
		n = 1
	}
	worst := ServedL1
	lb := h.L1.lineBits
	first := uint64(addr) >> lb
	last := (uint64(addr) + uint64(n) - 1) >> lb
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
