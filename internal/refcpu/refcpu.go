// Package refcpu models the sequential reference processor of the paper's
// comparison: a single core of an Intel Core i7-M620 (Westmere, 2.67 GHz) —
// an out-of-order superscalar CPU with hardware floating point, no fused
// multiply-add, and a three-level cache hierarchy backed by DDR3. Like
// emu.Core, it implements machine.Machine: kernels charge abstract
// operations and refcpu translates them into cycles.
//
// The model captures the mechanisms the paper credits the i7 with
// (Sec. VI): "prefetching mechanisms combined with three levels of caches
// to hide the memory latencies", an on-die memory controller, out-of-order
// superscalar execution, and a 2.67x clock advantage over the Epiphany.
package refcpu

import (
	"math"

	"sarmany/internal/machine"
	"sarmany/internal/obs"
)

// Params holds the timing constants of the reference CPU. Values derive
// from the i7-M620 datasheet and published Westmere instruction tables,
// not from the paper's results (see DESIGN.md calibration policy).
type Params struct {
	// Clock is the core frequency in Hz (2.67 GHz).
	Clock float64

	// IntIPC is the sustained integer/address operations per cycle the
	// out-of-order core achieves on the kernels' bookkeeping code.
	IntIPC float64
	// FPIPC is the sustained scalar single-precision FP operations per
	// cycle on the kernels' dependence-chained arithmetic. Westmere can
	// issue one multiply and one add per cycle in separate ports, but the
	// back-projection and Neville interpolation chains are latency-bound,
	// which holds the sustained rate near one.
	FPIPC float64
	// FMAOps is how many scalar FP operations one kernel-level FMA charge
	// expands to (2: Westmere has no fused multiply-add).
	FMAOps int

	// DivCycles, SqrtCycles and TrigCycles are the effective costs of a
	// hardware divide, a hardware square root, and a libm trigonometric
	// call (sincos/atan2/acos).
	DivCycles, SqrtCycles, TrigCycles float64

	// Cache hierarchy (i7-M620: 32 KB L1D 8-way, 256 KB L2 8-way, 4 MB L3
	// 16-way, 64-byte lines).
	L1, L2, L3 CacheParams
	// L1HitCycles is charged per load on an L1 hit (pipelined loads);
	// L2HitCycles / L3HitCycles / MemCycles are the additional stalls for
	// deeper hits and DRAM.
	L1HitCycles, L2HitCycles, L3HitCycles, MemCycles float64
	// MissOverlap is the fraction of L3/DRAM miss latency hidden by the
	// hardware prefetchers and out-of-order window on these streaming
	// kernels.
	MissOverlap float64

	// SingleCorePowerWatts is the power attributed to one active core:
	// the paper takes half the 35 W package TDP for its single-threaded
	// reference, i.e. 17.5 W.
	SingleCorePowerWatts float64
}

// I7M620 returns the paper's reference configuration.
func I7M620() Params {
	return Params{
		Clock:  2.67e9,
		IntIPC: 2.5,
		FPIPC:  0.8,
		FMAOps: 2,

		DivCycles:  12,
		SqrtCycles: 18,
		TrigCycles: 90,

		L1: CacheParams{SizeBytes: 32 * 1024, Ways: 8, LineBytes: 64},
		L2: CacheParams{SizeBytes: 256 * 1024, Ways: 8, LineBytes: 64},
		L3: CacheParams{SizeBytes: 4 * 1024 * 1024, Ways: 16, LineBytes: 64},

		L1HitCycles: 0.5,
		L2HitCycles: 10,
		L3HitCycles: 35,
		MemCycles:   110,
		MissOverlap: 0.6,

		SingleCorePowerWatts: 17.5,
	}
}

// CPU is one simulated reference core. It implements machine.Machine.
type CPU struct {
	P      Params
	hier   *Hierarchy
	cycles float64
	heap   *machine.Bump

	// tr is the CPU's event-trace sink; nil (the default) disables
	// tracing at zero cost.
	tr *obs.Track

	Stats Stats
}

// Stats counts the operations and cache behaviour of a run.
type Stats struct {
	FMA, Flop, IOp  uint64
	Div, Sqrt, Trig uint64
	Loads, Stores   uint64
	Served          [4]uint64 // indexed by Level
}

var _ machine.Machine = (*CPU)(nil)

// New constructs a CPU with the given parameters and an empty cache
// hierarchy. Data buffers are placed in the model's DRAM via Mem().
func New(p Params) *CPU {
	return &CPU{
		P:    p,
		hier: NewHierarchy(p.L1, p.L2, p.L3),
		// An arbitrary heap region; only relative placement matters for
		// the cache simulation.
		heap: machine.NewBump(0x10000000, 512*1024*1024),
	}
}

// Mem returns the allocator for the model's main memory.
func (c *CPU) Mem() machine.Alloc { return c.heap }

// SetTracer attaches (or with nil detaches) an event tracer. The CPU
// records stall spans for accesses served beyond the L2 (where the model
// charges unhidden miss latency); attach before running a kernel.
func (c *CPU) SetTracer(tr *obs.Tracer) {
	if tr == nil {
		c.tr = nil
		return
	}
	tr.NameProcess(1, "refcpu i7")
	c.tr = tr.NewTrack(1, 1, "cpu")
}

// Metrics publishes the run's state into a fresh registry: operation
// counters ("cpu.ops.*"), the cache-level service distribution
// ("cpu.mem.served.*") and elapsed cycles ("cpu.cycles").
func (c *CPU) Metrics() *obs.Registry {
	reg := obs.NewRegistry()
	s := &c.Stats
	reg.Counter("cpu.ops.fma").Add(float64(s.FMA))
	reg.Counter("cpu.ops.flop").Add(float64(s.Flop))
	reg.Counter("cpu.ops.iop").Add(float64(s.IOp))
	reg.Counter("cpu.ops.div").Add(float64(s.Div))
	reg.Counter("cpu.ops.sqrt").Add(float64(s.Sqrt))
	reg.Counter("cpu.ops.trig").Add(float64(s.Trig))
	reg.Counter("cpu.mem.loads").Add(float64(s.Loads))
	reg.Counter("cpu.mem.stores").Add(float64(s.Stores))
	for lvl, name := range [4]string{"l1", "l2", "l3", "dram"} {
		reg.Counter("cpu.mem.served." + name).Add(float64(s.Served[lvl]))
	}
	reg.Gauge("cpu.cycles").Set(c.cycles)
	return reg
}

// opCycles returns o's cycles in the two parts Charge adds: the FMA,
// Flop, Div, Sqrt and Trig part, then the IOp part.
func (p *Params) opCycles(o *machine.Ops) (fp, iop float64) {
	fp = float64(o.FMA*p.FMAOps+o.Flop)/p.FPIPC +
		float64(o.Div)*p.DivCycles + float64(o.Sqrt)*p.SqrtCycles + float64(o.Trig)*p.TrigCycles
	return fp, float64(o.IOp) / p.IntIPC
}

// count adds k batches o to the operation counters.
func (s *Stats) count(o *machine.Ops, k uint64) {
	s.FMA += k * uint64(o.FMA)
	s.Flop += k * uint64(o.Flop)
	s.IOp += k * uint64(o.IOp)
	s.Div += k * uint64(o.Div)
	s.Sqrt += k * uint64(o.Sqrt)
	s.Trig += k * uint64(o.Trig)
}

// Charge charges o. At I7M620's constants an FMA, Flop, Div, Sqrt or Trig
// costs a multiple of 1/4 cycle, so their sum is exact; added in one step
// to a cycle count at least as large, it rounds as adding the terms one by
// one does. An IOp costs 0.4 cycles, which float64 cannot hold, so IOp
// adds on its own, after the rest: a batch costs what its operations cost
// one by one when its integer work is the last work it charges. The
// kernels' goldens pin their cycles to the bit, including the first few
// charges of a run, where the count is still smaller than a batch.
func (c *CPU) Charge(o machine.Ops) {
	fp, iop := c.P.opCycles(&o)
	c.cycles += fp
	c.cycles += iop
	c.Stats.count(&o, 1)
}

// levelCycles returns the cycles of an access served at level l.
func (p *Params) levelCycles(l Level) float64 {
	switch l {
	case ServedL1:
		return p.L1HitCycles
	case ServedL2:
		return p.L1HitCycles + p.L2HitCycles
	case ServedL3:
		return p.L1HitCycles + p.L3HitCycles*(1-p.MissOverlap)
	default:
		return p.L1HitCycles + p.MemCycles*(1-p.MissOverlap)
	}
}

// Load charges a read of n bytes at addr through the cache hierarchy.
func (c *CPU) Load(addr uint32, n int) {
	c.Stats.Loads++
	c.access(addr, n)
}

// Store charges a write of n bytes at addr (write-allocate, so timing-wise
// it walks the hierarchy like a load; store buffers hide most of the
// latency, which MissOverlap already accounts for).
func (c *CPU) Store(addr uint32, n int) {
	c.Stats.Stores++
	c.access(addr, n)
}

func (c *CPU) access(addr uint32, n int) {
	lvl := c.hier.Access(addr, n)
	c.Stats.Served[lvl]++
	c.pay(lvl, c.P.levelCycles(lvl))
}

// pay adds the cycles cy of an access served at lvl, recording a stall
// span for one served beyond the L2. The span's end is the sum the add
// makes; taking it before the add keeps pay small enough to inline.
func (c *CPU) pay(lvl Level, cy float64) {
	if lvl >= ServedL3 {
		c.tr.Span(obs.KindStallMem, c.cycles, c.cycles+cy)
	}
	c.cycles += cy
}

// ChargeBeam leaves the CPU as the calls b lists do, in their order: each
// batch's non-integer part then its IOp part, and each access's cache walk
// and level cost. It prices each batch and level once and adds the
// counters once per beam. Two facts let it skip work:
//
//   - The cache model never reads the clock. A pixel whose access streams
//     stay in the lines of the pixel before hits L1 on every access and
//     leaves the hierarchy as it was, if L1 has 3 or more ways and no
//     access straddles two lines. So it walks the hierarchy at a segment's
//     first pixel and where a stream enters a new line, and counts the
//     pixels between as L1 hits.
//   - While the clock c stays in its binade [2^e, 2^(e+1)), float64 rounds
//     c+x to c+r(x), x rounded to a multiple of 2^(e-52), the same at
//     every such c unless x is a tie, which rounds to even. So with no
//     tracer, c > 0, no addend negative or tied, and no way for the beam
//     to leave the binade, it adds n r(batches) and each level's count
//     times r(its cost) in closed form, exactly.
//
// Other beams (traced, a run's first few, one that crosses a power of two)
// make every pixel's additions one by one, a counted hit's L1 cost too.
func (c *CPU) ChargeBeam(b machine.Beam) {
	var fp, iop [3]float64
	for k := range b.Pixel {
		fp[k], iop[k] = c.P.opCycles(&b.Pixel[k])
	}
	var cost [4]float64
	for l := range cost {
		cost[l] = c.P.levelCycles(Level(l))
	}
	n := b.Len()
	pixel, rcost, exact := c.binade(n, &fp, &iop, &cost)
	var served [4]uint64
	var loads uint64
	l1 := c.hier.L1
	mask := uint32(l1.p.LineBytes - 1)
	w := b.Segments()
	for s, ok := w.Next(); ok; s, ok = w.Next() {
		// A pixel's accesses in order: streams 0 and 1 load each child's
		// sample, if it has one, and stream 2 stores the pixel.
		on := [3]bool{s.Off[0] >= 0, s.Off[1] >= 0, true}
		addr := [3]uint32{2: b.Dst.ElemAddr(b.Out + s.First)}
		accesses := 1
		for k := range 2 {
			if on[k] {
				addr[k] = b.Src[k].ElemAddr(b.Base[k] + s.Off[k])
				loads += uint64(s.Len)
				accesses++
			}
		}
		repeats := l1.p.Ways >= 3 && (addr[0]|addr[1]|addr[2])&7 == 0
		for j := 0; j < s.Len; {
			// Pixel j walks the hierarchy, and the r pixels after it
			// stay in its lines.
			r := s.Len - 1 - j
			for k := range 3 {
				if !exact {
					c.cycles += fp[k]
					c.cycles += iop[k]
				}
				if on[k] {
					a := addr[k] + uint32(8*j)
					lvl := c.hier.Access(a, 8)
					served[lvl]++
					if !exact {
						c.pay(lvl, cost[lvl])
					}
					r = min(r, int((mask-a&mask)>>3))
				}
			}
			if !repeats {
				r = 0
			}
			hits := uint64(r * accesses)
			served[ServedL1] += hits
			l1.Hits += hits
			for i := 0; i < r && !exact; i++ {
				for k := range 3 {
					c.cycles += fp[k]
					c.cycles += iop[k]
					if on[k] {
						c.cycles += cost[ServedL1]
					}
				}
			}
			j += 1 + r
		}
	}
	if exact {
		cy := float64(n) * pixel
		for l, k := range served {
			cy += float64(k) * rcost[l]
		}
		c.cycles += cy
	}
	for k := range b.Pixel {
		c.Stats.count(&b.Pixel[k], uint64(n))
	}
	c.Stats.Loads += loads
	c.Stats.Stores += uint64(n)
	for l, k := range served {
		c.Stats.Served[l] += k
	}
}

// binade reports whether a beam of n pixels, each adding the batch cycles
// fp and iop and up to three access costs, takes ChargeBeam's closed form,
// and returns a pixel's r(fp)+r(iop) sum and each cost's r.
func (c *CPU) binade(n int, fp, iop *[3]float64, cost *[4]float64) (pixel float64, rcost [4]float64, ok bool) {
	cy := c.cycles
	lo := math.Float64frombits(math.Float64bits(cy) &^ (1<<52 - 1)) // 2^e
	ok = c.tr == nil && cy > 0
	r := func(x float64) float64 {
		rx := float64(cy+x) - cy
		ok = ok && x >= 0 && 2*math.Abs(x-rx) != lo*0x1p-52
		return rx
	}
	for k := range fp {
		pixel += r(fp[k]) + r(iop[k])
	}
	var worst float64
	for l, x := range cost {
		rcost[l] = r(x)
		worst = max(worst, rcost[l])
	}
	return pixel, rcost, ok && cy+float64(n)*(pixel+3*worst) < 2*lo
}

// Cycles returns the elapsed cycle count.
func (c *CPU) Cycles() float64 { return c.cycles }

// Seconds returns the elapsed time in seconds.
func (c *CPU) Seconds() float64 { return c.cycles / c.P.Clock }
