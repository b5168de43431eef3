package emu

import (
	"fmt"

	"sarmany/internal/obs"
)

// coreStatFields is the single source of truth binding CoreStats fields to
// registry metric names: Metrics publishes through it and AddStats (and
// so TotalStats) sums through it, so the struct view and the registry
// view cannot drift apart.
var coreStatFields = []struct {
	name string
	get  func(*CoreStats) float64
	set  func(*CoreStats, float64)
}{
	{"ops.fma", func(s *CoreStats) float64 { return float64(s.FMA) }, func(s *CoreStats, v float64) { s.FMA = uint64(v) }},
	{"ops.flop", func(s *CoreStats) float64 { return float64(s.Flop) }, func(s *CoreStats, v float64) { s.Flop = uint64(v) }},
	{"ops.iop", func(s *CoreStats) float64 { return float64(s.IOp) }, func(s *CoreStats, v float64) { s.IOp = uint64(v) }},
	{"ops.div", func(s *CoreStats) float64 { return float64(s.Div) }, func(s *CoreStats, v float64) { s.Div = uint64(v) }},
	{"ops.sqrt", func(s *CoreStats) float64 { return float64(s.Sqrt) }, func(s *CoreStats, v float64) { s.Sqrt = uint64(v) }},
	{"ops.trig", func(s *CoreStats) float64 { return float64(s.Trig) }, func(s *CoreStats, v float64) { s.Trig = uint64(v) }},
	{"mem.local_loads", func(s *CoreStats) float64 { return float64(s.LocalLoads) }, func(s *CoreStats, v float64) { s.LocalLoads = uint64(v) }},
	{"mem.local_stores", func(s *CoreStats) float64 { return float64(s.LocalStores) }, func(s *CoreStats, v float64) { s.LocalStores = uint64(v) }},
	{"mem.remote_reads", func(s *CoreStats) float64 { return float64(s.RemoteReads) }, func(s *CoreStats, v float64) { s.RemoteReads = uint64(v) }},
	{"mem.remote_writes", func(s *CoreStats) float64 { return float64(s.RemoteWrites) }, func(s *CoreStats, v float64) { s.RemoteWrites = uint64(v) }},
	{"mem.ext_reads", func(s *CoreStats) float64 { return float64(s.ExtReads) }, func(s *CoreStats, v float64) { s.ExtReads = uint64(v) }},
	{"mem.ext_writes", func(s *CoreStats) float64 { return float64(s.ExtWrites) }, func(s *CoreStats, v float64) { s.ExtWrites = uint64(v) }},
	{"mem.ext_read_bytes", func(s *CoreStats) float64 { return float64(s.ExtReadB) }, func(s *CoreStats, v float64) { s.ExtReadB = uint64(v) }},
	{"mem.ext_write_bytes", func(s *CoreStats) float64 { return float64(s.ExtWriteB) }, func(s *CoreStats, v float64) { s.ExtWriteB = uint64(v) }},
	{"noc.bytes", func(s *CoreStats) float64 { return float64(s.NoCBytes) }, func(s *CoreStats, v float64) { s.NoCBytes = uint64(v) }},
	{"dma.transfers", func(s *CoreStats) float64 { return float64(s.DMATransfers) }, func(s *CoreStats, v float64) { s.DMATransfers = uint64(v) }},
	{"dma.bytes", func(s *CoreStats) float64 { return float64(s.DMABytes) }, func(s *CoreStats, v float64) { s.DMABytes = uint64(v) }},
	{"barrier.waits", func(s *CoreStats) float64 { return float64(s.BarrierWaits) }, func(s *CoreStats, v float64) { s.BarrierWaits = uint64(v) }},
	{"cycles.stall", func(s *CoreStats) float64 { return s.StallCycles }, func(s *CoreStats, v float64) { s.StallCycles = v }},
	{"cycles.compute", func(s *CoreStats) float64 { return s.ComputeCycles }, func(s *CoreStats, v float64) { s.ComputeCycles = v }},
	{"cycles.stall.read", func(s *CoreStats) float64 { return s.ReadStallCycles }, func(s *CoreStats, v float64) { s.ReadStallCycles = v }},
	{"cycles.stall.ext", func(s *CoreStats) float64 { return s.ExtStallCycles }, func(s *CoreStats, v float64) { s.ExtStallCycles = v }},
	{"cycles.stall.dma", func(s *CoreStats) float64 { return s.DMAStallCycles }, func(s *CoreStats, v float64) { s.DMAStallCycles = v }},
	{"cycles.stall.link", func(s *CoreStats) float64 { return s.LinkStallCycles }, func(s *CoreStats, v float64) { s.LinkStallCycles = v }},
	{"cycles.stall.barrier", func(s *CoreStats) float64 { return s.BarrierStallCycles }, func(s *CoreStats, v float64) { s.BarrierStallCycles = v }},
	{"fault.link_retries", func(s *CoreStats) float64 { return float64(s.LinkRetries) }, func(s *CoreStats, v float64) { s.LinkRetries = uint64(v) }},
	{"fault.dma_retries", func(s *CoreStats) float64 { return float64(s.DMARetries) }, func(s *CoreStats, v float64) { s.DMARetries = uint64(v) }},
	{"fault.retry_bytes", func(s *CoreStats) float64 { return float64(s.RetryBytes) }, func(s *CoreStats, v float64) { s.RetryBytes = uint64(v) }},
	{"fault.link_retry_cycles", func(s *CoreStats) float64 { return s.LinkRetryCycles }, func(s *CoreStats, v float64) { s.LinkRetryCycles = v }},
	{"fault.dma_retry_cycles", func(s *CoreStats) float64 { return s.DMARetryCycles }, func(s *CoreStats, v float64) { s.DMARetryCycles = v }},
	{"fault.derate_cycles", func(s *CoreStats) float64 { return s.DerateCycles }, func(s *CoreStats, v float64) { s.DerateCycles = v }},
}

// VisitStats calls fn for every published statistic of s with its metric
// name (e.g. "mem.local_loads"), in the metric table's order. It exposes
// the same single-source field list Metrics, AddStats and SubStats use,
// so external consumers — the conformance checker reconciling per-phase
// deltas against totals — iterate the full struct without maintaining a
// field list that could drift.
func VisitStats(s CoreStats, fn func(name string, value float64)) {
	for _, f := range coreStatFields {
		fn(f.name, f.get(&s))
	}
}

// AddStats returns the field-wise sum a+b over every published statistic,
// using the same field table as Metrics so new counters cannot be missed.
func AddStats(a, b CoreStats) CoreStats {
	var out CoreStats
	for _, f := range coreStatFields {
		f.set(&out, f.get(&a)+f.get(&b))
	}
	return out
}

// SubStats returns the field-wise difference a-b — the per-phase deltas
// internal/profile attributes energy to.
func SubStats(a, b CoreStats) CoreStats {
	var out CoreStats
	for _, f := range coreStatFields {
		f.set(&out, f.get(&a)-f.get(&b))
	}
	return out
}

// stallHistograms maps per-cause stall metric names to the CoreStats field
// feeding the per-core distribution histograms.
var stallHistograms = []struct {
	name string
	get  func(*CoreStats) float64
}{
	{"read", func(s *CoreStats) float64 { return s.ReadStallCycles }},
	{"ext", func(s *CoreStats) float64 { return s.ExtStallCycles }},
	{"dma", func(s *CoreStats) float64 { return s.DMAStallCycles }},
	{"link", func(s *CoreStats) float64 { return s.LinkStallCycles }},
	{"barrier", func(s *CoreStats) float64 { return s.BarrierStallCycles }},
}

// Metrics publishes the state of the most recent run into a fresh
// registry: summed operation/traffic counters over the active cores
// ("emu.ops.*", "emu.mem.*", ...), per-core distribution histograms of
// cycles and per-cause stalls, the phase classification and ext-channel
// utilization ("emu.phase.*"), and per-link occupancy ("emu.link.*").
func (ch *Chip) Metrics() *obs.Registry {
	reg := obs.NewRegistry()
	cores := ch.activeCores()
	for _, f := range coreStatFields {
		ctr := reg.Counter("emu." + f.name)
		for _, c := range cores {
			ctr.Add(f.get(&c.Stats))
		}
	}
	cyc := reg.Histogram("emu.core.cycles")
	for _, c := range cores {
		cyc.Observe(c.Cycles())
	}
	for _, sh := range stallHistograms {
		h := reg.Histogram("emu.core.stall." + sh.name)
		for _, c := range cores {
			h.Observe(sh.get(&c.Stats))
		}
	}

	reg.Gauge("emu.cores.active").Set(float64(len(cores)))
	reg.Gauge("emu.phase.count").Set(float64(len(ch.trace)))
	if len(ch.trace) > 0 {
		util := reg.Histogram("emu.phase.ext_util")
		for _, p := range ch.trace {
			if d := p.Duration(); d > 0 {
				util.Observe(p.ExtBusy / d)
			}
			if p.BandwidthBound {
				reg.Counter("emu.phase.bandwidth_bound").Add(1)
			} else {
				reg.Counter("emu.phase.compute_bound").Add(1)
			}
			reg.Counter("emu.phase.ext_busy_cycles").Add(p.ExtBusy)
		}
	}

	for _, l := range ch.links {
		p := fmt.Sprintf("emu.link.%d->%d.", l.from.ID, l.to.ID)
		reg.Counter(p + "blocks").Add(float64(l.sends))
		reg.Counter(p + "bytes").Add(float64(l.bytes))
		reg.Counter(p + "send_stall_cycles").Add(l.sendStall)
		reg.Counter(p + "recv_stall_cycles").Add(l.recvStall)
		if l.retries > 0 {
			reg.Counter(p + "retries").Add(float64(l.retries))
			reg.Counter(p + "retry_bytes").Add(float64(l.retryBytes))
			reg.Counter(p + "retry_cycles").Add(l.retryCycles)
		}
	}

	if ch.faults != nil {
		reg.Gauge("emu.fault.halted_cores").Set(float64(len(ch.faults.HaltedCores())))
		reg.Gauge("emu.fault.remapped_slots").Set(float64(len(ch.remaps)))
	}
	return reg
}

// TotalStats sums the per-core statistics of the cores that ran with
// AddStats, in core order, so each field equals the counter Metrics
// publishes for it. resolvePhase calls it while the other cores are
// parked at the barrier with their dual-issue windows committed.
func (ch *Chip) TotalStats() CoreStats {
	var sum CoreStats
	for _, c := range ch.activeCores() {
		sum = AddStats(sum, c.Stats)
	}
	return sum
}
