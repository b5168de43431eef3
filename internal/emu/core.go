package emu

import (
	"fmt"
	"sync/atomic"

	"sarmany/internal/machine"
	"sarmany/internal/obs"
)

// CoreStats accumulates the operation counts and traffic of one core.
type CoreStats struct {
	FMA, Flop, IOp      uint64
	Div, Sqrt, Trig     uint64
	LocalLoads          uint64
	LocalStores         uint64
	RemoteReads         uint64
	RemoteWrites        uint64
	ExtReads, ExtWrites uint64
	ExtReadB, ExtWriteB uint64
	NoCBytes            uint64
	DMATransfers        uint64
	DMABytes            uint64
	BarrierWaits        uint64
	StallCycles         float64 // cycles spent stalled on reads/DMA/links
	ComputeCycles       float64 // cycles from the dual-issue pipes

	// Per-cause breakdown of StallCycles, named after the obs span kinds:
	// stalling remote reads, stalling off-chip reads, DMA completion
	// waits, link back-pressure/empty waits, and barrier waits (including
	// the off-chip drain the barrier settles).
	ReadStallCycles    float64
	ExtStallCycles     float64
	DMAStallCycles     float64
	LinkStallCycles    float64
	BarrierStallCycles float64

	// Fault-injection accounting (all zero without an attached fault
	// plan). LinkRetries/RetryBytes count retransmitted link blocks and
	// their payload; LinkRetryCycles is the producer time those retries
	// cost (timeout + backoff stalls plus re-issue cycles, a subset of
	// LinkStallCycles + ComputeCycles). DMARetries/DMARetryCycles count
	// injected DMA completion timeouts and the extra engine time they add.
	// DerateCycles is the extra compute time a frequency-derated core
	// spent (a subset of ComputeCycles).
	LinkRetries     uint64
	DMARetries      uint64
	RetryBytes      uint64
	LinkRetryCycles float64
	DMARetryCycles  float64
	DerateCycles    float64
}

// addStall accumulates cy stall cycles under the given cause.
func (s *CoreStats) addStall(kind obs.Kind, cy float64) {
	s.StallCycles += cy
	switch kind {
	case obs.KindStallRead:
		s.ReadStallCycles += cy
	case obs.KindStallExt:
		s.ExtStallCycles += cy
	case obs.KindStallDMA:
		s.DMAStallCycles += cy
	case obs.KindStallLink:
		s.LinkStallCycles += cy
	case obs.KindStallBarrier:
		s.BarrierStallCycles += cy
	}
}

// Core is one Epiphany processor tile: a dual-issue core (FPU + integer
// ALU), its banked local memory, and its DMA engine. Core implements
// machine.Machine.
type Core struct {
	chip *Chip
	ID   int
	// Row, Col are the core's position on the global grid of the whole
	// array (identical to the chip mesh position on a single chip).
	Row, Col int
	// chipIdx is the chip (row-major over the chip array) hosting this
	// core; its SDRAM channel serves the core's external accesses.
	chipIdx int

	now  float64 // committed local time, cycles
	fpu  float64 // pending FPU-pipe cycles since last commit
	ialu float64 // pending IALU-pipe cycles since last commit

	extBusy float64 // off-chip channel service cycles consumed this phase
	dmaLast float64 // completion time of the most recently issued DMA

	banks []*machine.Bump

	// tr is the core's event-trace sink; nil (the default) disables
	// tracing and every recording call is a free no-op. ftr is the
	// separate fault-event track, created only when both a tracer and a
	// non-empty fault plan are attached.
	tr  *obs.Track
	ftr *obs.Track

	// slow is the frequency-derating factor from the attached fault plan:
	// every committed dual-issue window is stretched by it. 1 (the
	// default) leaves the commit arithmetic untouched.
	slow float64

	// prog is the core's progress cell (see progress.go); nil (the
	// default) disables publication and every noteProgress is a no-op.
	prog *atomic.Uint64

	Stats CoreStats
}

var _ machine.Machine = (*Core)(nil)

// commit folds the pending dual-issue window into the committed time. The
// two pipes issue in parallel (one FPU instruction and one IALU/load-store
// instruction per cycle), so the window costs the maximum of the two
// accumulations.
func (c *Core) commit() {
	d := c.fpu
	if c.ialu > d {
		d = c.ialu
	}
	if c.slow != 1 {
		// Frequency derating stretches the committed window; the extra
		// time stays inside ComputeCycles (so the compute+stall cycle
		// identity is untouched) and is attributed in DerateCycles.
		s := d * c.slow
		c.Stats.DerateCycles += s - d
		d = s
	}
	c.now += d
	c.Stats.ComputeCycles += d
	c.fpu, c.ialu = 0, 0
	if d > 0 {
		c.tr.Span(obs.KindCompute, c.now-d, c.now)
		c.noteProgress()
	}
}

func (c *Core) stall(cycles float64, kind obs.Kind) {
	c.commit()
	c.now += cycles
	c.Stats.addStall(kind, cycles)
	c.tr.Span(kind, c.now-cycles, c.now)
	c.noteProgress()
}

// noteStall records that the core's clock was advanced from `from` to
// `to` by an external completion (DMA, link, barrier) and attributes the
// gap to the given cause. A non-positive gap records nothing.
func (c *Core) noteStall(kind obs.Kind, from, to float64) {
	if to <= from {
		return
	}
	c.Stats.addStall(kind, to-from)
	c.tr.Span(kind, from, to)
	c.noteProgress()
}

// Charge charges o on the dual-issue pipes: FMA, Flop and the software
// divide, square root and trigonometry sequences on the FPU, IOp on the
// IALU. At E16G3's constants both pipes only add integers between two
// commits, which float64 holds exactly, so a batch costs the same cycles,
// to the bit, as its operations charged one at a time.
func (c *Core) Charge(o machine.Ops) {
	p := &c.chip.P
	c.fpu += float64(o.FMA + o.Flop + o.Div*p.DivFlops + o.Sqrt*p.SqrtFlops + o.Trig*p.TrigFlops)
	c.ialu += float64(o.IOp)
	c.Stats.FMA += uint64(o.FMA)
	c.Stats.Flop += uint64(o.Flop)
	c.Stats.IOp += uint64(o.IOp)
	c.Stats.Div += uint64(o.Div)
	c.Stats.Sqrt += uint64(o.Sqrt)
	c.Stats.Trig += uint64(o.Trig)
}

// words returns the number of 64-bit transfers needed for n bytes.
func words(n int) float64 { return float64((n + 7) / 8) }

// Load charges a read of n bytes at addr. Local reads cost one IALU-pipe
// cycle per double word; reads from another core's memory or from external
// SDRAM stall the core for the full round trip — the asymmetry the paper
// highlights ("writing has a single cycle throughput whereas the memory
// read operation is more expensive due to stalling").
func (c *Core) Load(addr uint32, n int) {
	switch loc, hops, bridges := c.classify(addr); loc {
	case locLocal:
		c.ialu += words(n) * c.chip.P.LocalAccessCycles
		c.Stats.LocalLoads++
	case locRemote:
		p := &c.chip.P
		c.stall(p.RemoteReadBase+2*float64(hops)*p.RemoteHopCycles+2*float64(bridges)*p.ELinkHopCycles+
			words(n)*8/p.NoCBytesPerCycle, obs.KindStallRead)
		c.Stats.RemoteReads++
		c.Stats.NoCBytes += uint64(n)
	case locExt:
		p := &c.chip.P
		service := float64(n) / c.extBW()
		c.stall(p.ExtReadLatency+service, obs.KindStallExt)
		c.extBusy += service
		c.Stats.ExtReads++
		c.Stats.ExtReadB += uint64(n)
	}
}

// Store charges a write of n bytes at addr. All writes are posted: local
// stores cost one IALU cycle per double word; remote and external writes
// cost only their issue cycles, with the consumed off-chip bandwidth
// settled at the next barrier by the contention model.
func (c *Core) Store(addr uint32, n int) {
	switch loc, _, _ := c.classify(addr); loc {
	case locLocal:
		c.ialu += words(n) * c.chip.P.LocalAccessCycles
		c.Stats.LocalStores++
	case locRemote:
		c.ialu += words(n) * 8 / c.chip.P.NoCBytesPerCycle
		c.Stats.RemoteWrites++
		c.Stats.NoCBytes += uint64(n)
	case locExt:
		c.ialu += words(n) * 8 / c.chip.P.NoCBytesPerCycle
		c.extBusy += float64(n) / c.extBW()
		c.Stats.ExtWrites++
		c.Stats.ExtWriteB += uint64(n)
	}
}

// Cycles returns the core's elapsed cycles including the pending
// dual-issue window.
func (c *Core) Cycles() float64 {
	d := c.fpu
	if c.ialu > d {
		d = c.ialu
	}
	if c.slow != 1 {
		d *= c.slow
	}
	return c.now + d
}

// ClockHz returns the core clock frequency.
func (c *Core) ClockHz() float64 { return c.chip.P.Clock }

type location int

const (
	locLocal location = iota
	locRemote
	locExt
)

// tileOf returns the global grid coordinates encoded in a core-mapped
// address, using the chip's cached address-map origin (not validated
// against the configured grid).
func (ch *Chip) tileOf(addr uint32) (row, col int) {
	id := addr >> 20
	return int(id>>6) - ch.originRow, int(id&0x3f) - ch.originCol
}

// classify maps a global address to local / remote-core / external, and
// for remote addresses returns the Manhattan hop count of the XY route
// plus the number of chip boundaries (eLink bridges) it crosses.
func (c *Core) classify(addr uint32) (location, int, int) {
	if addr >= ExtBase && addr < ExtBase+ExtSize {
		return locExt, 0, 0
	}
	row, col := c.chip.tileOf(addr)
	if row < 0 || row >= c.chip.gridRows || col < 0 || col >= c.chip.gridCols {
		panic(fmt.Sprintf("emu: address %#x maps to no core or external region", addr))
	}
	if int(addr&0xfffff) >= c.chip.P.LocalMemBytes {
		panic(fmt.Sprintf("emu: address %#x beyond local memory of core (%d,%d)", addr, row, col))
	}
	if row == c.Row && col == c.Col {
		return locLocal, 0, 0
	}
	return locRemote, abs(row-c.Row) + abs(col-c.Col),
		c.chip.P.bridgesBetween(row, col, c.Row, c.Col)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Bank returns the allocator of local-memory bank b (0-based). The paper's
// FFBP kernel stores subaperture data in "the two upper data banks" —
// banks 2 and 3 here.
func (c *Core) Bank(b int) machine.Alloc {
	if b < 0 || b >= len(c.banks) {
		panic(fmt.Sprintf("emu: core has no bank %d", b))
	}
	return c.banks[b]
}

// DMA is a handle for an in-flight DMA transfer.
type DMA struct {
	done float64
}

// dmaStart computes the timing of a DMA transfer of n bytes. extRead and
// extWrite say whether the source and destination, respectively, are in
// external memory; hops is the XY-route Manhattan distance between the
// two tiles of an intercore transfer and bridges the chip boundaries the
// route crosses. The engine processes one descriptor at a time, so a new
// transfer starts after the previous one completes.
//
// Off-chip transfers keep the read/write asymmetry the paper highlights:
// a read burst pays the eLink+SDRAM round-trip latency before the bytes
// stream back, while a write burst is posted — the engine only streams
// the bytes out, and the consumed channel bandwidth is settled at the
// next barrier by the contention model.
func (c *Core) dmaStart(n int, extRead, extWrite bool, hops, bridges int) DMA {
	c.ialu += c.chip.P.DMASetupCycles
	c.commit()
	start := c.now
	if c.dmaLast > start {
		start = c.dmaLast
	}
	p := &c.chip.P
	var dur float64
	if extRead || extWrite {
		service := float64(n) / c.extBW()
		if extRead {
			dur += p.ExtReadLatency + service
			c.extBusy += service
		}
		if extWrite {
			dur += service
			c.extBusy += service
		}
	} else {
		dur = p.RemoteReadBase + 2*float64(hops)*p.RemoteHopCycles +
			2*float64(bridges)*p.ELinkHopCycles + float64(n)/p.DMABytesPerCycle
		c.Stats.NoCBytes += uint64(n)
	}
	if extra := c.injectDMAFaults(); extra > 0 {
		// Injected completion timeouts delay the descriptor's finish; the
		// cost surfaces as DMA-wait stall only if the core actually waits.
		dur += extra
		c.ftr.Span(obs.KindFaultDMA, start+dur-extra, start+dur)
	}
	c.dmaLast = start + dur
	c.Stats.DMATransfers++
	c.Stats.DMABytes += uint64(n)
	return DMA{done: c.dmaLast}
}

// DMACopyC starts a DMA transfer of n complex64 elements from src[so:] to
// dst[do:]. The Go data is copied immediately; simulated time advances
// when DMAWait is called, so a kernel must not consume dst before waiting
// — the same discipline real DMA requires.
func (c *Core) DMACopyC(dst *machine.BufC, do int, src *machine.BufC, so, n int) DMA {
	copy(dst.Data[do:do+n], src.Data[so:so+n])
	srcAddr, dstAddr := src.ElemAddr(so), dst.ElemAddr(do)
	extRead, extWrite := isExt(srcAddr), isExt(dstAddr)
	if extRead {
		c.Stats.ExtReads++ // one burst transaction
		c.Stats.ExtReadB += uint64(8 * n)
	}
	if extWrite {
		c.Stats.ExtWrites++ // one posted burst
		c.Stats.ExtWriteB += uint64(8 * n)
	}
	hops, bridges := 0, 0
	if !extRead && !extWrite {
		hops, bridges = c.chip.P.dist(srcAddr, dstAddr)
	}
	return c.dmaStart(8*n, extRead, extWrite, hops, bridges)
}

// DMAWait blocks (in simulated time) until transfer d has completed.
func (c *Core) DMAWait(d DMA) {
	c.commit()
	if d.done > c.now {
		before := c.now
		c.now = d.done
		c.noteStall(obs.KindStallDMA, before, c.now)
	}
}

func isExt(addr uint32) bool { return addr >= ExtBase && addr < ExtBase+ExtSize }

// Barrier synchronizes all cores participating in the current Run. The
// last core to arrive settles the phase's off-chip bandwidth contention:
// if the cores collectively consumed more channel service time than the
// phase spanned, the barrier completes when the channel drains. All cores
// leave the barrier at the same (adjusted) time.
func (c *Core) Barrier() {
	c.commit()
	ch := c.chip
	ch.barTimes[c.ID] = c.now
	ch.barBusy[c.ID] = c.extBusy
	c.Stats.BarrierWaits++
	ch.bar.Wait(func() { ch.resolvePhase() })
	before := c.now
	c.now = ch.phaseStart
	c.noteStall(obs.KindStallBarrier, before, c.now)
	c.extBusy = 0
}
