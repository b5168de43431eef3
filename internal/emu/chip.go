package emu

import (
	"fmt"
	"sync"

	"sarmany/internal/fault"
	"sarmany/internal/machine"
	"sarmany/internal/obs"
	"sarmany/internal/sim"
)

// Chip is one simulated Epiphany device or eLink-bridged array of
// devices: a global grid of cores, their local memories, one off-chip
// SDRAM channel per chip, and external SDRAM. A Chip is single-shot:
// construct it, Run one workload, then read times and stats.
type Chip struct {
	P     Params
	Cores []*Core

	ext *machine.Bump // external SDRAM allocator (shared address space)

	// originRow/originCol cache the address-map placement of the grid
	// (see Params.meshOrigin) and gridRows/gridCols the global grid
	// dimensions, for the hot address-classification path.
	originRow, originCol int
	gridRows, gridCols   int

	// Barrier state for the active Run. chipBusy is resolvePhase's
	// per-chip channel accumulation scratch, reused across phases.
	active     int
	bar        *sim.Rendezvous
	barTimes   []float64
	barBusy    []float64
	chipBusy   []float64
	phaseStart float64
	trace      []PhaseRecord
	// phaseCum is the cumulative active-core stats at the end of the most
	// recently resolved phase; resolvePhase diffs against it to attribute
	// operation counts and traffic to individual phases.
	phaseCum CoreStats

	// ran is the core count of the most recent Run; Time, MaxCycles and
	// TotalStats aggregate only those cores so results of a narrower run
	// are not skewed by stale state from a wider earlier one.
	ran int

	links []*Link // every link Connect has created, for metrics

	// Event tracing (nil when disabled — the default).
	tracer     *obs.Tracer
	phaseTrack *obs.Track

	// Fault injection (nil when disabled — the default). remaps records
	// every work slot Assignments/RemapPlacement moved off a halted core.
	faults *fault.Injector
	remaps []Remap

	// Live-progress publication (nil when disabled — the default); see
	// progress.go.
	progress *progressState
}

// New constructs a chip with the given parameters.
func New(p Params) *Chip {
	if p.NumCores() < 1 {
		panic("emu: chip needs at least one core")
	}
	if p.NumBanks*p.BankBytes != p.LocalMemBytes {
		panic(fmt.Sprintf("emu: %d banks of %d bytes do not form %d bytes of local memory",
			p.NumBanks, p.BankBytes, p.LocalMemBytes))
	}
	// The global address map encodes 6-bit node coordinates; a grid that
	// cannot fit the coordinate space at all is rejected with the
	// historical message, and one that fits only on top of the external
	// window is rejected as a collision. meshOrigin keeps every grid that
	// fits the classic (firstMeshRow, firstMeshCol) placement there, so
	// historical addresses are unchanged.
	gR, gC := p.GridRows(), p.GridCols()
	oR, oC, ok := p.meshOrigin()
	if !ok {
		if gR > 64 || gC > 64 {
			panic(fmt.Sprintf("emu: %dx%d grid exceeds the 6-bit address map", gR, gC))
		}
		panic(fmt.Sprintf("emu: %dx%d grid cannot avoid the external-memory window of the address map", gR, gC))
	}
	ch := &Chip{
		P:         p,
		ext:       machine.NewBump(ExtBase, ExtSize),
		originRow: oR, originCol: oC,
		gridRows: gR, gridCols: gC,
		barTimes: make([]float64, p.NumCores()),
		barBusy:  make([]float64, p.NumCores()),
		chipBusy: make([]float64, p.NumChips()),
	}
	for r := 0; r < gR; r++ {
		for c := 0; c < gC; c++ {
			core := &Core{
				chip: ch,
				ID:   r*gC + c,
				Row:  r, Col: c,
				chipIdx: (r/p.Rows)*p.chipCols() + c/p.Cols,
				slow:    1,
				banks:   make([]*machine.Bump, p.NumBanks),
			}
			base := p.coreBase(r, c)
			for b := 0; b < p.NumBanks; b++ {
				core.banks[b] = machine.NewBump(base+uint32(b*p.BankBytes), p.BankBytes)
			}
			ch.Cores = append(ch.Cores, core)
		}
	}
	return ch
}

// Ext returns the external-SDRAM allocator. Buffers allocated here are
// charged off-chip access costs by every core.
func (ch *Chip) Ext() machine.Alloc { return ch.ext }

// SetTracer attaches (or with nil detaches) an event tracer: every core
// gets its own span track, plus one synthetic "phases" track carrying the
// barrier-phase classification. Attach before Run; the tracks may be
// exported once Run has returned. With no tracer attached the
// instrumentation is a no-op — it never changes modeled cycle counts
// either way, since it only observes timestamps.
func (ch *Chip) SetTracer(tr *obs.Tracer) {
	ch.tracer = tr
	if tr == nil {
		ch.phaseTrack = nil
		for _, c := range ch.Cores {
			c.tr = nil
			c.ftr = nil
		}
		return
	}
	if ch.P.NumChips() == 1 {
		tr.NameProcess(0, fmt.Sprintf("epiphany %dx%d", ch.P.Rows, ch.P.Cols))
	} else {
		tr.NameProcess(0, fmt.Sprintf("epiphany %dx%d chips of %dx%d",
			ch.P.chipRows(), ch.P.chipCols(), ch.P.Rows, ch.P.Cols))
	}
	ch.phaseTrack = tr.NewTrack(0, 0, "phases")
	for _, c := range ch.Cores {
		c.tr = tr.NewTrack(0, c.ID+1, fmt.Sprintf("core %d", c.ID))
	}
	ch.makeFaultTracks()
}

// Tracer returns the attached tracer (nil when tracing is disabled).
func (ch *Chip) Tracer() *obs.Tracer { return ch.tracer }

// Run executes fn concurrently on the first n cores (one goroutine per
// core) and waits for completion. Barriers inside fn synchronize exactly
// those n cores. n == 0 means all cores. Cores hard-halted by an attached
// fault plan never run and never join barriers; they stay in the
// aggregate views with zero stats. Kernels move the halted cores' work to
// live ones via Assignments/RemapPlacement before calling Run.
func (ch *Chip) Run(n int, fn func(c *Core)) {
	if n == 0 {
		n = len(ch.Cores)
	}
	if n < 1 || n > len(ch.Cores) {
		panic(fmt.Sprintf("emu: cannot run on %d of %d cores", n, len(ch.Cores)))
	}
	live := make([]*Core, 0, n)
	for i := 0; i < n; i++ {
		if ch.Alive(i) {
			live = append(live, ch.Cores[i])
		} else {
			// A halted core contributes nothing to the barrier settlement;
			// clear any state a previous wider run may have left behind.
			ch.barTimes[i] = 0
			ch.barBusy[i] = 0
		}
	}
	if len(live) == 0 {
		panic(fmt.Sprintf("emu: all %d cores of the run are halted by the fault plan", n))
	}
	ch.active = n
	ch.ran = n
	ch.bar = sim.NewRendezvous(len(live))
	ch.phaseStart = 0
	ch.phaseCum = ch.sumActiveStats()
	var wg sync.WaitGroup
	for _, c := range live {
		wg.Add(1)
		go func(c *Core) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		ch.Cores[i].commit()
	}
}

// Settle commits every core's pending dual-issue window so each core's
// Cycles() and Stats agree exactly. Run settles the cores it drove on
// return; Settle additionally covers kernels that drive cores directly
// (and is what the conformance checker calls before verifying the
// compute+stall cycle identity). Call only while no simulation goroutines
// are running.
func (ch *Chip) Settle() {
	for _, c := range ch.Cores {
		c.commit()
	}
}

// resolvePhase settles off-chip bandwidth contention for the phase that
// just ended: the barrier completes either when the slowest core finishes
// or when every chip's SDRAM channel has drained the traffic its cores
// offered during the phase, whichever is later. On a single chip this is
// exactly the historical shared-channel settlement.
func (ch *Chip) resolvePhase() {
	var maxFinish, totalBusy float64
	for k := range ch.chipBusy {
		ch.chipBusy[k] = 0
	}
	for i := 0; i < ch.active; i++ {
		if ch.barTimes[i] > maxFinish {
			maxFinish = ch.barTimes[i]
		}
		ch.chipBusy[ch.Cores[i].chipIdx] += ch.barBusy[i]
	}
	t := maxFinish
	bwBound := false
	for _, busy := range ch.chipBusy {
		totalBusy += busy
		if drain := ch.phaseStart + busy; drain > t {
			t = drain
			bwBound = true
		}
	}
	// Attribute the phase's operation counts and traffic: the other cores
	// are parked in the rendezvous with their windows committed, so their
	// Stats are safe to read here. Barrier-stall cycles are recorded after
	// the cores are released, so a phase's delta carries the *previous*
	// barrier's waits; totals over all phases still reconcile exactly.
	cum := ch.sumActiveStats()
	delta := SubStats(cum, ch.phaseCum)
	ch.phaseCum = cum
	rec := PhaseRecord{
		Index:          len(ch.trace),
		Start:          ch.phaseStart,
		End:            t,
		SlowestCore:    maxFinish,
		ExtBusy:        totalBusy,
		BandwidthBound: bwBound,
		Stats:          delta,
	}
	if len(ch.chipBusy) > 1 {
		rec.ExtBusyByChip = append([]float64(nil), ch.chipBusy...)
	}
	ch.trace = append(ch.trace, rec)
	kind := obs.KindPhaseCompute
	if bwBound {
		kind = obs.KindPhaseBandwidth
	}
	ch.phaseTrack.Span(kind, ch.phaseStart, t)
	ch.phaseStart = t
	ch.notePhase()
}

// sumActiveStats sums the stats of the active cores. It is called from
// the rendezvous resolution step, where every other participant is parked
// with its dual-issue window committed.
func (ch *Chip) sumActiveStats() CoreStats {
	var sum CoreStats
	for i := 0; i < ch.active; i++ {
		sum = AddStats(sum, ch.Cores[i].Stats)
	}
	return sum
}

// CoreTrack returns core i's event-trace track (nil when tracing is
// disabled) — the span stream consumers like internal/profile analyze.
func (ch *Chip) CoreTrack(i int) *obs.Track { return ch.Cores[i].tr }

// LinkStat is the read-side view of one streaming link's occupancy after
// a run completes.
type LinkStat struct {
	From int `json:"from"`
	To   int `json:"to"`
	Hops int `json:"hops"`
	// Bridges counts the chip boundaries (eLink bridges) the link's XY
	// route crosses; zero on a single chip.
	Bridges int    `json:"bridges,omitempty"`
	Blocks  uint64 `json:"blocks"`
	Bytes   uint64 `json:"bytes"`
	// Recvs and RecvBytes are the consumer-side counts; a balanced run
	// drains every link, so they match Blocks and Bytes (the conformance
	// checker verifies exactly that).
	Recvs     uint64  `json:"recvs"`
	RecvBytes uint64  `json:"recv_bytes"`
	SendWait  float64 `json:"send_wait_cycles"` // producer back-pressure
	RecvWait  float64 `json:"recv_wait_cycles"` // consumer empty-buffer waits

	// Fault-injection accounting (all zero without an attached fault
	// plan). Retries counts retransmitted blocks, RetryBytes their payload
	// and RetryCycles the producer time they cost. WireBlocks/WireBytes
	// are the totals that actually crossed the mesh — delivered plus
	// retransmitted — so on a faulty link WireBytes ≥ RecvBytes (the
	// conformance checker verifies exactly that).
	Retries     uint64  `json:"retries,omitempty"`
	RetryBytes  uint64  `json:"retry_bytes,omitempty"`
	RetryCycles float64 `json:"retry_cycles,omitempty"`
	WireBlocks  uint64  `json:"wire_blocks"`
	WireBytes   uint64  `json:"wire_bytes"`
}

// LinkStats returns the occupancy of every link Connect has created, in
// creation order. Call only after Run has returned.
func (ch *Chip) LinkStats() []LinkStat {
	out := make([]LinkStat, 0, len(ch.links))
	for _, l := range ch.links {
		out = append(out, LinkStat{
			From: l.from.ID, To: l.to.ID, Hops: l.hops, Bridges: l.bridges,
			Blocks: l.sends, Bytes: l.bytes,
			Recvs: l.recvs, RecvBytes: l.recvBytes,
			SendWait: l.sendStall, RecvWait: l.recvStall,
			Retries: l.retries, RetryBytes: l.retryBytes, RetryCycles: l.retryCycles,
			WireBlocks: l.sends + l.retries, WireBytes: l.bytes + l.retryBytes,
		})
	}
	return out
}

// ActiveCount returns how many cores the aggregate views cover: the core
// count of the most recent Run, or the full mesh if Run has not been used
// (sequential kernels drive Cores[0] directly).
func (ch *Chip) ActiveCount() int { return len(ch.activeCores()) }

// activeCores returns the cores of the most recent Run, or all cores if
// Run has not been used (sequential kernels drive Cores[0] directly).
func (ch *Chip) activeCores() []*Core {
	if ch.ran > 0 {
		return ch.Cores[:ch.ran]
	}
	return ch.Cores
}

// Time returns the chip's execution time in seconds: the latest core
// finish time over the cores that ran.
func (ch *Chip) Time() float64 {
	return ch.MaxCycles() / ch.P.Clock
}

// MaxCycles returns the latest core finish time in cycles over the cores
// of the most recent Run.
func (ch *Chip) MaxCycles() float64 {
	var max float64
	for _, c := range ch.activeCores() {
		if t := c.Cycles(); t > max {
			max = t
		}
	}
	return max
}

// Link is a one-way streaming connection between two cores, modelling the
// paper's MPMD dataflow style: the producer writes blocks into the
// consumer's local memory with posted writes and sets a flag; the consumer
// polls the flag and reads locally. Capacity is the number of blocks that
// fit in the consumer-side buffer before the producer back-pressures.
type Link struct {
	ch       *sim.Chan[[]complex64]
	from, to *Core
	hops     int
	bridges  int // chip boundaries (eLink bridges) the route crosses

	// blocks are the capacity+2 buffers Send copies blocks into, in turn:
	// up to capacity queued, one held by the consumer until its next
	// Recv, and one being filled. Only the producer's goroutine touches
	// the slice; block k lives in blocks[k%len(blocks)].
	blocks [][]complex64

	// Occupancy statistics. sends/bytes/sendStall are written only by the
	// producer core's goroutine, recvs/recvBytes/recvStall only by the
	// consumer's; read them after the Run completes.
	sends, recvs uint64
	bytes        uint64
	recvBytes    uint64
	sendStall    float64 // producer cycles lost to back-pressure
	recvStall    float64 // consumer cycles waiting for a block

	// Fault-injection counters, written only by the producer core's
	// goroutine (like sends/bytes/sendStall).
	retries     uint64
	retryBytes  uint64
	retryCycles float64
}

// Connect creates a link from core `from` to core `to` with the given
// block capacity.
func (ch *Chip) Connect(from, to, capacity int) *Link {
	f, t := ch.Cores[from], ch.Cores[to]
	l := &Link{
		ch:      sim.NewChan[[]complex64](capacity),
		blocks:  make([][]complex64, capacity+2),
		from:    f,
		to:      t,
		hops:    abs(f.Row-t.Row) + abs(f.Col-t.Col),
		bridges: ch.P.bridgesBetween(f.Row, f.Col, t.Row, t.Col),
	}
	ch.links = append(ch.links, l)
	return l
}

// transit returns the one-way mesh traversal latency of an n-byte block
// on the link: one RemoteHopCycles per grid hop, one ELinkHopCycles per
// chip boundary, plus the serialization of the payload.
func (l *Link) transit(n int) float64 {
	p := &l.from.chip.P
	return float64(l.hops)*p.RemoteHopCycles + float64(l.bridges)*p.ELinkHopCycles +
		words(n)*8/p.NoCBytesPerCycle
}

// Send streams vals over the link. It must be called by the link's
// producer core. The producer pays the posted-write issue cycles; the
// block becomes visible to the consumer after the mesh traversal latency.
// If the consumer-side buffer is full the producer blocks until a slot
// frees (and its clock advances accordingly). Send copies vals into one
// of the link's own buffers, so the caller may reuse vals at once.
func (l *Link) Send(c *Core, vals []complex64) {
	if c != l.from {
		panic("emu: Send from wrong core")
	}
	n := len(vals) * 8
	// Issue cycles: one double word per cycle into the mesh, plus the
	// flag write.
	c.ialu += words(n) + 1
	c.commit()
	// Injected link faults: the block may be lost en route; the producer
	// times out, backs off, and retransmits before the delivery below.
	l.injectSendFaults(c, n)
	dur := l.transit(n)
	i := l.sends % uint64(len(l.blocks))
	block := append(l.blocks[i][:0], vals...)
	l.blocks[i] = block
	before := c.now
	c.now = l.ch.Send(c.now, block, dur)
	c.noteStall(obs.KindStallLink, before, c.now)
	if c.now > before {
		// Back-pressure: the producer waited for the consumer to free a
		// slot at c.now — a dependency edge for critical-path analysis.
		c.tr.Dep(l.to.tr, c.now, c.now)
	}
	l.sendStall += c.now - before
	l.sends++
	l.bytes += uint64(n)
	c.Stats.RemoteWrites++
	c.Stats.NoCBytes += uint64(n)
}

// Recv receives the next block. It must be called by the link's consumer
// core; the consumer's clock advances to the block arrival time plus the
// flag-poll and local reads. The block is valid until the next Recv on
// the link, which lets the producer refill its buffer: a consumer that
// needs the values longer copies them.
func (l *Link) Recv(c *Core) []complex64 {
	if c != l.to {
		panic("emu: Recv from wrong core")
	}
	c.ialu += 2 // flag poll + clear
	c.commit()
	v, now := l.ch.Recv(c.now)
	if now > c.now {
		before := c.now
		c.now = now
		c.noteStall(obs.KindStallLink, before, c.now)
		// The block that unblocked the consumer left the producer one
		// mesh traversal earlier; record the handoff edge so the critical
		// path can continue on the producer.
		c.tr.Dep(l.from.tr, now-l.transit(len(v)*8), now)
		l.recvStall += c.now - before
	}
	l.recvs++
	n := len(v) * 8
	l.recvBytes += uint64(n)
	// Local reads of the delivered block: the consumer loads one double
	// word per access at the configured local-access cost, counted per
	// access — the same price and convention Load charges a kernel reading
	// the block element-wise.
	nw := (n + 7) / 8
	c.ialu += float64(nw) * c.chip.P.LocalAccessCycles
	c.Stats.LocalLoads += uint64(nw)
	return v
}
