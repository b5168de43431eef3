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

// Charge charges o. At I7M620's constants an FMA, Flop, Div, Sqrt or Trig
// costs a multiple of 1/4 cycle, so their sum is exact; added in one step
// to a cycle count at least as large, it rounds as adding the terms one by
// one does. An IOp costs 0.4 cycles, which float64 cannot hold, so IOp
// adds on its own, after the rest: a batch costs what its operations cost
// one by one when its integer work is the last work it charges. The
// kernels' goldens pin their cycles to the bit, including the first few
// charges of a run, where the count is still smaller than a batch.
func (c *CPU) Charge(o machine.Ops) {
	p := &c.P
	c.cycles += float64(o.FMA*p.FMAOps+o.Flop)/p.FPIPC +
		float64(o.Div)*p.DivCycles + float64(o.Sqrt)*p.SqrtCycles + float64(o.Trig)*p.TrigCycles
	c.cycles += float64(o.IOp) / p.IntIPC
	c.Stats.FMA += uint64(o.FMA)
	c.Stats.Flop += uint64(o.Flop)
	c.Stats.IOp += uint64(o.IOp)
	c.Stats.Div += uint64(o.Div)
	c.Stats.Sqrt += uint64(o.Sqrt)
	c.Stats.Trig += uint64(o.Trig)
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
	before := c.cycles
	switch lvl {
	case ServedL1:
		c.cycles += c.P.L1HitCycles
	case ServedL2:
		c.cycles += c.P.L1HitCycles + c.P.L2HitCycles
	case ServedL3:
		c.cycles += c.P.L1HitCycles + c.P.L3HitCycles*(1-c.P.MissOverlap)
	case ServedMem:
		c.cycles += c.P.L1HitCycles + c.P.MemCycles*(1-c.P.MissOverlap)
	}
	if lvl >= ServedL3 {
		c.tr.Span(obs.KindStallMem, before, c.cycles)
	}
}

// Cycles returns the elapsed cycle count.
func (c *CPU) Cycles() float64 { return c.cycles }

// ClockHz returns the clock frequency.
func (c *CPU) ClockHz() float64 { return c.P.Clock }

// Seconds returns the elapsed time in seconds.
func (c *CPU) Seconds() float64 { return c.cycles / c.P.Clock }
