package emu

import (
	"testing"

	"sarmany/internal/fault"
	"sarmany/internal/machine"
)

// TestArrayConstructorShapes pins the grid and power figures of the
// scaled configurations the scaling benchmark sweeps.
func TestArrayConstructorShapes(t *testing.T) {
	cases := []struct {
		name               string
		p                  Params
		gridRows, gridCols int
		chips              int
		watts              float64
	}{
		{"E16G3", E16G3(), 4, 4, 1, 2},
		{"E64", E64(), 8, 8, 1, 8},
		{"E256", E256(), 16, 16, 1, 32},
		{"E1024", E1024(), 32, 32, 4, 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.p.GridRows() != tc.gridRows || tc.p.GridCols() != tc.gridCols {
				t.Errorf("grid %dx%d, want %dx%d", tc.p.GridRows(), tc.p.GridCols(), tc.gridRows, tc.gridCols)
			}
			if got := tc.p.NumCores(); got != tc.gridRows*tc.gridCols {
				t.Errorf("NumCores = %d", got)
			}
			if got := tc.p.NumChips(); got != tc.chips {
				t.Errorf("NumChips = %d, want %d", got, tc.chips)
			}
			if tc.p.MaxPowerWatts != tc.watts {
				t.Errorf("MaxPowerWatts = %v, want %v", tc.p.MaxPowerWatts, tc.watts)
			}
			ch := New(tc.p)
			if len(ch.Cores) != tc.p.NumCores() {
				t.Errorf("New built %d cores", len(ch.Cores))
			}
		})
	}
}

// TestTopologyMapping pins the array-level coordinate algebra on the
// E1024 2x2 array of 16x16 chips: core IDs are row-major over the global
// 32x32 grid, chips are row-major over the chip array, and the XY route
// between two cores counts both mesh hops and eLink bridge crossings.
func TestTopologyMapping(t *testing.T) {
	p := E1024()
	if p.chipRows() != 2 || p.chipCols() != 2 {
		t.Fatalf("chip array %dx%d, want 2x2", p.chipRows(), p.chipCols())
	}
	// Grid position and chip membership at the four chip corners; New
	// assigns each core both.
	ch := New(p)
	for _, tc := range []struct {
		row, col int
		id       int
		chip     int
	}{
		{0, 0, 0, 0},
		{0, 16, 16, 1},
		{16, 0, 512, 2},
		{16, 16, 528, 3},
		{31, 31, 1023, 3},
	} {
		c := ch.Cores[tc.id]
		if c.ID != tc.id || c.Row != tc.row || c.Col != tc.col {
			t.Errorf("core %d at (%d,%d) with ID %d, want (%d,%d)", tc.id, c.Row, c.Col, c.ID, tc.row, tc.col)
		}
		if c.chipIdx != tc.chip {
			t.Errorf("core %d on chip %d, want %d", tc.id, c.chipIdx, tc.chip)
		}
	}
	// Distances between core pages: hops on the global grid, bridges per
	// chip boundary.
	for _, tc := range []struct {
		a, b          [2]int
		hops, bridges int
	}{
		{[2]int{0, 0}, [2]int{0, 15}, 15, 0},  // within chip 0
		{[2]int{0, 0}, [2]int{0, 16}, 16, 1},  // east across one bridge
		{[2]int{0, 0}, [2]int{16, 16}, 32, 2}, // diagonal: two bridges
		{[2]int{0, 0}, [2]int{31, 31}, 62, 2},
		{[2]int{15, 15}, [2]int{16, 16}, 2, 2}, // adjacent across the corner
	} {
		hops, bridges := p.dist(p.coreBase(tc.a[0], tc.a[1]), p.coreBase(tc.b[0], tc.b[1]))
		if hops != tc.hops || bridges != tc.bridges {
			t.Errorf("dist(%v,%v) = %d hops / %d bridges, want %d / %d",
				tc.a, tc.b, hops, bridges, tc.hops, tc.bridges)
		}
	}
}

// chippedAndMono build the same 2x4 global grid twice: once as a 1x2
// eLink-bridged array of 2x2 chips, once as a monolithic 2x4 chip. Every
// cross-array cost difference between the two is exactly the eLink term.
func chippedAndMono() (chipped, mono *Chip) {
	return New(E16G3().WithMesh(2, 2).WithChips(1, 2)), New(E16G3().WithMesh(2, 4))
}

// TestBridgePricesRemoteRead pins the eLink surcharge of a stalling
// remote read: crossing one chip boundary adds 2*ELinkHopCycles (round
// trip) on top of the identical mesh-hop arithmetic.
func TestBridgePricesRemoteRead(t *testing.T) {
	chipped, mono := chippedAndMono()
	p := chipped.P
	read := func(ch *Chip, col int) float64 {
		c := ch.Cores[0]
		c.Load(ch.P.coreBase(0, col), 8)
		c.commit()
		return c.Cycles()
	}
	// (0,0) -> (0,2): two hops, and on the chipped array one bridge.
	monoCy := read(mono, 2)
	if want := p.RemoteReadBase + 2*2*p.RemoteHopCycles + 8/p.NoCBytesPerCycle; monoCy != want {
		t.Errorf("monolithic 2-hop read = %v cycles, want %v", monoCy, want)
	}
	chippedCy := read(chipped, 2)
	if want := monoCy + 2*p.ELinkHopCycles; chippedCy != want {
		t.Errorf("cross-bridge read = %v cycles, want %v (mono %v + 2*eLink)", chippedCy, want, monoCy)
	}
	// (0,0) -> (0,1) stays on chip 0: the two models price it identically.
	chipped2, mono2 := chippedAndMono()
	if c, m := read(chipped2, 1), read(mono2, 1); c != m {
		t.Errorf("on-chip read differs: chipped %v, mono %v", c, m)
	}
}

// TestBridgePricesLinkTransit pins the eLink surcharge of a streaming
// link: the consumer sees the block one ELinkHopCycles later per bridge,
// and LinkStats reports the bridge count.
func TestBridgePricesLinkTransit(t *testing.T) {
	p := E16G3()
	consumer := func(ch *Chip) float64 {
		l := ch.Connect(0, 2, 1) // (0,0) -> (0,2): crosses the boundary when chipped
		ch.Run(3, func(c *Core) {
			if c.ID == 0 {
				l.Send(c, make([]complex64, 8))
			}
			if c.ID == 2 {
				l.Recv(c)
			}
		})
		return ch.Cores[2].Cycles()
	}
	chipped, mono := chippedAndMono()
	monoCy, chippedCy := consumer(mono), consumer(chipped)
	if want := monoCy + p.ELinkHopCycles; chippedCy != want {
		t.Errorf("bridged consumer finished at %v, want %v (mono %v + one eLink transit)",
			chippedCy, want, monoCy)
	}
	ls, lsMono := chipped.LinkStats()[0], mono.LinkStats()[0]
	if ls.Bridges != 1 || ls.Hops != 2 {
		t.Errorf("bridged link stat %d hops / %d bridges, want 2 / 1", ls.Hops, ls.Bridges)
	}
	if lsMono.Bridges != 0 {
		t.Errorf("monolithic link reports %d bridges", lsMono.Bridges)
	}
}

// TestBridgePricesInterCoreDMA pins the eLink surcharge of an inter-core
// DMA descriptor: 2*ELinkHopCycles per crossed boundary, like the
// stalling read's round trip.
func TestBridgePricesInterCoreDMA(t *testing.T) {
	p := E16G3()
	dma := func(ch *Chip) float64 {
		c := ch.Cores[0]
		local, err := machine.NewBufC(c.Bank(2), 16)
		if err != nil {
			t.Fatal(err)
		}
		far, err := machine.NewBufC(ch.Cores[2].Bank(0), 16)
		if err != nil {
			t.Fatal(err)
		}
		c.DMAWait(c.DMACopyC(far, 0, local, 0, 16))
		return c.Cycles()
	}
	chipped, mono := chippedAndMono()
	monoCy, chippedCy := dma(mono), dma(chipped)
	if want := monoCy + 2*p.ELinkHopCycles; chippedCy != want {
		t.Errorf("cross-bridge DMA = %v cycles, want %v (mono %v + 2*eLink)", chippedCy, want, monoCy)
	}
}

// TestPerChipChannelsDrainIndependently pins the multi-chip barrier
// settlement: every chip owns an SDRAM channel, so a phase ends when the
// most loaded channel drains — not when the sum of all traffic would
// drain through one shared channel, which is what the monolithic layout
// of the same grid models.
func TestPerChipChannelsDrainIndependently(t *testing.T) {
	const elems = 64 // 512 bytes per core
	run := func(ch *Chip) PhaseRecord {
		ext, err := machine.NewBufC(ch.Ext(), 8*elems)
		if err != nil {
			t.Fatal(err)
		}
		ch.Run(8, func(c *Core) {
			for i := 0; i < elems; i++ {
				ext.Store(c, c.ID*elems+i, 1)
			}
			c.Barrier()
		})
		return ch.Phases()[0]
	}
	chipped, mono := chippedAndMono()
	bw := mono.P.ExtBytesPerCycle
	perCore := 8 * elems / bw // service cycles each core's writes owe

	recMono := run(mono)
	if want := 8 * perCore; recMono.End != want {
		t.Errorf("monolithic phase end = %v, want %v (8 cores through one channel)", recMono.End, want)
	}
	if recMono.ExtBusyByChip != nil {
		t.Errorf("single-chip phase carries ExtBusyByChip %v", recMono.ExtBusyByChip)
	}

	recChip := run(chipped)
	if want := 4 * perCore; recChip.End != want {
		t.Errorf("2-chip phase end = %v, want %v (4 cores per channel, drained in parallel)", recChip.End, want)
	}
	if !recChip.BandwidthBound {
		t.Error("bandwidth-dominated phase not flagged BandwidthBound")
	}
	if recChip.ExtBusy != recMono.ExtBusy {
		t.Errorf("total offered traffic differs: chipped %v, mono %v", recChip.ExtBusy, recMono.ExtBusy)
	}
	if len(recChip.ExtBusyByChip) != 2 ||
		recChip.ExtBusyByChip[0] != 4*perCore || recChip.ExtBusyByChip[1] != 4*perCore {
		t.Errorf("ExtBusyByChip = %v, want [%v %v]", recChip.ExtBusyByChip, 4*perCore, 4*perCore)
	}
}

// TestExtBWPerChipOverride pins ExtBytesPerCycleByChip: a chip with its
// own slower SDRAM channel pays proportionally more service time, while
// a zero entry falls back to the shared figure.
func TestExtBWPerChipOverride(t *testing.T) {
	p := E16G3().WithMesh(1, 1).WithChips(1, 2)  // two single-core chips
	p.ExtBytesPerCycleByChip = []float64{0, 0.5} // chip 0: default; chip 1: half rate
	if got := p.ExtBWOfChip(0); got != p.ExtBytesPerCycle {
		t.Fatalf("ExtBWOfChip(0) = %v, want fallback %v", got, p.ExtBytesPerCycle)
	}
	if got := p.ExtBWOfChip(1); got != 0.5 {
		t.Fatalf("ExtBWOfChip(1) = %v, want 0.5", got)
	}
	ch := New(p)
	ext, err := machine.NewBufC(ch.Ext(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cycles := func(id int) float64 {
		c := ch.Cores[id]
		ext.Load(c, id)
		c.commit()
		return c.Cycles()
	}
	fast, slow := cycles(0), cycles(1)
	// One 8-byte ext read each; halving the channel bandwidth doubles the
	// 8-cycle service term.
	if want := fast + 8/p.ExtBytesPerCycle; slow != want {
		t.Errorf("slow-channel read = %v cycles, want %v (fast %v + extra service)", slow, want, fast)
	}
}

// TestMeshOriginRelocation pins the address-map placement policy: grids
// that fit the classic E16G3 origin keep their exact historical
// addresses, while grids too large for it (E1024's 32x32) relocate to
// node (0, 0) — and the tile decode stays consistent either way.
func TestMeshOriginRelocation(t *testing.T) {
	classic := E16G3()
	if got := classic.coreBase(0, 0); got != 0x80800000 {
		t.Errorf("classic core (0,0) base = %#x, want 0x80800000", got)
	}
	big := E1024()
	if got := big.coreBase(0, 0); got != 0 {
		t.Errorf("relocated core (0,0) base = %#x, want 0x0", got)
	}
	for _, p := range []Params{classic, E64(), E256(), big} {
		for _, rc := range [][2]int{{0, 0}, {1, 2}, {p.GridRows() - 1, p.GridCols() - 1}} {
			r, c := p.tileOf(p.coreBase(rc[0], rc[1]))
			if r != rc[0] || c != rc[1] {
				t.Errorf("%dx%d grid: tileOf(coreBase(%d,%d)) = (%d,%d)",
					p.GridRows(), p.GridCols(), rc[0], rc[1], r, c)
			}
		}
		// No core page may alias the external window.
		base := p.coreBase(p.GridRows()-1, p.GridCols()-1)
		if base >= ExtBase && base < ExtBase+ExtSize {
			t.Errorf("%dx%d grid: last core page %#x aliases the external window",
				p.GridRows(), p.GridCols(), base)
		}
	}
	// A relocated grid is fully usable: remote reads still classify and
	// price correctly.
	ch := New(E16G3().WithMesh(33, 1))
	c := ch.Cores[0]
	c.Load(ch.P.coreBase(32, 0), 8)
	c.commit()
	p := ch.P
	if want := p.RemoteReadBase + 2*32*p.RemoteHopCycles + 8/p.NoCBytesPerCycle; c.Cycles() != want {
		t.Errorf("relocated-grid remote read = %v cycles, want %v", c.Cycles(), want)
	}
}

// TestChipHaltStopsWholeChip pins whole-chip fault semantics on a 1x2
// array of 2x2 chips: halting chip 1 kills exactly cores 2,3,6,7 of the
// 2x4 global grid, Run skips them, and Assignments moves their slots to
// the nearest live cores on chip 0.
func TestChipHaltStopsWholeChip(t *testing.T) {
	p := E16G3().WithMesh(2, 2).WithChips(1, 2)
	ch := New(p)
	ch.SetFaults(fault.MustCompile(fault.Plan{ChipHalts: []int{1}}))
	halted := map[int]bool{2: true, 3: true, 6: true, 7: true}
	for id := range ch.Cores {
		if ch.Alive(id) == halted[id] {
			t.Errorf("Alive(%d) = %v with chip 1 halted", id, ch.Alive(id))
		}
	}
	assign, err := ch.Assignments(8)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest live core by grid Manhattan distance, lowest ID on ties:
	// slot 2 at (0,2) -> core 1 at (0,1); slot 3 at (0,3) -> core 1 (d=2);
	// slot 6 at (1,2) -> core 5 at (1,1); slot 7 at (1,3) -> core 5.
	want := []int{0, 1, 1, 1, 4, 5, 5, 5}
	for i, a := range assign {
		if a != want[i] {
			t.Errorf("slot %d assigned to core %d, want %d", i, a, want[i])
		}
	}
	if n := len(ch.Remaps()); n != 4 {
		t.Errorf("%d remaps recorded, want 4", n)
	}
	ch.Run(8, func(c *Core) {
		c.Charge(machine.Ops{FMA: 100})
		c.Barrier()
	})
	for id, c := range ch.Cores {
		if halted[id] {
			if c.Cycles() != 0 || c.Stats != (CoreStats{}) {
				t.Errorf("halted core %d ran: %v cycles, %+v", id, c.Cycles(), c.Stats)
			}
		} else if c.Stats.ComputeCycles != 100 {
			t.Errorf("live core %d computed %v cycles, want 100", id, c.Stats.ComputeCycles)
		}
	}

	// Halting every chip of the run leaves no taker.
	ch2 := New(p)
	ch2.SetFaults(fault.MustCompile(fault.Plan{ChipHalts: []int{0, 1}}))
	if _, err := ch2.Assignments(8); err == nil {
		t.Error("expected error with every chip halted")
	}
}

// TestChipDerateMultipliesCoreDerate pins the composition of whole-chip
// and per-core derating: a core on a derated chip runs at the product of
// the two factors.
func TestChipDerateMultipliesCoreDerate(t *testing.T) {
	p := E16G3().WithMesh(2, 2).WithChips(1, 2)
	ch := New(p)
	ch.SetFaults(fault.MustCompile(fault.Plan{
		ChipDerates: []fault.ChipDerate{{Chip: 1, Factor: 2}},
		Derates:     []fault.Derate{{Core: 2, Factor: 1.5}},
	}))
	for _, tc := range []struct {
		id   int
		want float64
	}{
		{0, 100}, // chip 0, no derate
		{6, 200}, // chip 1: whole-chip factor 2
		{2, 300}, // chip 1 and core derate: 2 * 1.5
	} {
		c := ch.Cores[tc.id]
		c.Charge(machine.Ops{FMA: 100})
		if got := c.Cycles(); got != tc.want {
			t.Errorf("core %d: FMA(100) = %v cycles, want %v", tc.id, got, tc.want)
		}
	}
}
