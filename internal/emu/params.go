// Package emu models the Adapteva Epiphany manycore architecture (paper
// Sec. III) at the cycle-accounting level: dual-issue cores with a
// single-cycle fused-multiply-add FPU, 32 KB of banked local memory per
// core, the eGrid 2-D mesh NoC with XY routing and one-cycle-per-node
// latency, per-core DMA engines, and the eLink/SDRAM off-chip path with
// stalling reads and posted (non-stalling) writes.
//
// Kernels execute real arithmetic in Go while charging an emu.Core (which
// implements machine.Machine) for every operation; the model translates
// the operation stream into cycles. Simulated cores run as goroutines and
// synchronize through deterministic virtual-time primitives (package sim),
// so a given kernel always produces bit-identical timing.
package emu

// Params holds the architecture and timing constants of a chip
// configuration. All cycle figures are in core clock cycles. The values in
// E16G3 derive from the Epiphany E16G3 datasheet and the architecture
// description in the paper (Sec. III), not from the paper's results table;
// see DESIGN.md for the calibration policy.
type Params struct {
	// Rows, Cols give the per-chip core mesh dimensions (4x4 for the
	// E16G3). With ChipRows/ChipCols > 1 every chip has this shape and the
	// chips tile a ChipRows x ChipCols array.
	Rows, Cols int

	// ChipRows, ChipCols arrange identical chips into an eLink-bridged
	// array; 0 (or 1) means a single chip. The global core grid is
	// (ChipRows*Rows) x (ChipCols*Cols) and core IDs are row-major over
	// that grid, so single-chip layouts are unchanged.
	ChipRows, ChipCols int
	// Clock is the core (and NoC) clock frequency in Hz. The paper
	// reports results scaled to the architecture's 1 GHz maximum.
	Clock float64
	// LocalMemBytes is the per-core local store (32 KB on the E16G3),
	// organized as NumBanks banks of BankBytes each (4 x 8 KB).
	LocalMemBytes int
	NumBanks      int
	BankBytes     int

	// SqrtFlops, DivFlops and TrigFlops are the FPU operation counts of
	// the software routines Epiphany uses for operations its FPU lacks:
	// the fast inverse-square-root style sqrt the paper mentions, a
	// Newton–Raphson divide, and polynomial sincos/atan kernels.
	SqrtFlops, DivFlops, TrigFlops int

	// LocalAccessCycles is the IALU-pipe cost of one 64-bit local-memory
	// load or store (single cycle, dual-issued with FPU work).
	LocalAccessCycles float64

	// RemoteReadBase is the fixed round-trip overhead of a read from
	// another core's local memory; RemoteHopCycles is added per mesh hop
	// per direction (the eGrid's single-cycle-wait-per-node routing).
	RemoteReadBase  float64
	RemoteHopCycles float64
	// ELinkHopCycles is the extra latency of crossing one chip boundary
	// (an eLink bridge) per direction: an off-chip serialized link is far
	// slower than an on-chip mesh hop. Charged per boundary an XY route
	// crosses; irrelevant on a single chip.
	ELinkHopCycles float64
	// NoCBytesPerCycle is the per-link on-chip throughput (8 bytes/cycle:
	// one double word per clock).
	NoCBytesPerCycle float64

	// ExtReadLatency is the round-trip stall of a direct off-chip read
	// (eLink + SDRAM). Reads stall the core; writes are posted.
	ExtReadLatency float64
	// ExtBytesPerCycle is the sustained off-chip bandwidth of one chip's
	// SDRAM channel, shared by that chip's cores, in bytes per core-clock
	// cycle. The eGrid's theoretical off-chip bandwidth is 8 GB/s (paper
	// Sec. III), but the experimental board's eLink sustains far less;
	// this is the effective figure the contention model uses. In a
	// multi-chip array every chip has its own channel of this bandwidth.
	ExtBytesPerCycle float64
	// ExtBytesPerCycleByChip optionally overrides ExtBytesPerCycle per
	// chip (indexed by chip ID, row-major over the chip array), modelling
	// boards whose SDRAM channels are not identical. Chips beyond the
	// slice length use ExtBytesPerCycle.
	ExtBytesPerCycleByChip []float64

	// DMASetupCycles is the descriptor setup cost of starting a DMA
	// transfer; DMABytesPerCycle is the engine's peak throughput (a double
	// word per clock cycle, per the paper).
	DMASetupCycles   float64
	DMABytesPerCycle float64

	// IdlePowerWatts and MaxPowerWatts bound the chip power model; see
	// package energy. The paper uses 2 W for the E16G3 at 1 GHz.
	MaxPowerWatts float64
}

// E16G3 returns the 16-core Epiphany-III configuration used in the paper's
// experiments, timed at the architecture's maximum 1 GHz clock.
func E16G3() Params {
	return Params{
		Rows: 4, Cols: 4,
		Clock:         1e9,
		LocalMemBytes: 32 * 1024,
		NumBanks:      4,
		BankBytes:     8 * 1024,

		// Software numeric routines (float32): fast inverse sqrt with two
		// Newton steps, Newton divide, polynomial sincos/atan of ~9th
		// order plus range reduction — all FMA-friendly.
		SqrtFlops: 10,
		DivFlops:  17,
		TrigFlops: 45,

		LocalAccessCycles: 1,

		RemoteReadBase:   12,
		RemoteHopCycles:  1,
		NoCBytesPerCycle: 8,

		// Crossing a chip boundary costs an eLink serialization round:
		// the off-chip links run at 1/8 of the on-chip mesh clock rate
		// (see DESIGN.md), so one bridge crossing is priced at 8 on-chip
		// hops per direction. Unused on a single chip.
		ELinkHopCycles: 8,

		// ~80 ns eLink+SDRAM round trip at 1 GHz; ~1 B/cycle sustained
		// off-chip (1 GB/s at 1 GHz, ~1/8 of the eGrid's 8 GB/s theoretical
		// off-chip bandwidth) shared by all cores of a chip.
		ExtReadLatency:   80,
		ExtBytesPerCycle: 1.0,

		DMASetupCycles:   40,
		DMABytesPerCycle: 8,

		MaxPowerWatts: 2,
	}
}

// E64 returns a 64-core (8x8) configuration with the same per-core
// parameters, modelling the 64-core Epiphany the paper's conclusions
// mention as newly available. The off-chip path is kept identical, which
// is precisely why FFBP scaling saturates there (see the scaling bench).
func E64() Params {
	p := E16G3()
	p.Rows, p.Cols = 8, 8
	p.MaxPowerWatts = 8 // four times the tiles and NoC area
	return p
}

// E256 returns a 256-core (16x16) single-chip configuration in the
// Epiphany-IV/V direction: the same per-core parameters and one SDRAM
// channel, with power scaled by tile count like E64.
func E256() Params {
	p := E16G3()
	p.Rows, p.Cols = 16, 16
	p.MaxPowerWatts = 32
	return p
}

// E1024 returns a 1024-core configuration built as a 2x2 eLink-bridged
// array of 16x16 chips — the multi-chip direction of Olofsson et al.'s
// Epiphany-V scaling story. Each chip keeps its own SDRAM channel, so
// aggregate off-chip bandwidth grows with the array.
func E1024() Params {
	p := E256()
	p.ChipRows, p.ChipCols = 2, 2
	p.MaxPowerWatts = 128
	return p
}

// WithMesh returns a copy of p resized to an r x c per-chip core mesh.
func (p Params) WithMesh(r, c int) Params {
	p.Rows, p.Cols = r, c
	return p
}

// WithChips returns a copy of p arranged as a cr x cc array of chips.
func (p Params) WithChips(cr, cc int) Params {
	p.ChipRows, p.ChipCols = cr, cc
	return p
}

// chipRows and chipCols normalize the array dimensions: zero (the
// single-chip zero value) reads as 1.
func (p Params) chipRows() int {
	if p.ChipRows < 1 {
		return 1
	}
	return p.ChipRows
}

func (p Params) chipCols() int {
	if p.ChipCols < 1 {
		return 1
	}
	return p.ChipCols
}

// NumChips returns the number of chips in the array (1 for a single
// chip).
func (p Params) NumChips() int { return p.chipRows() * p.chipCols() }

// GridRows and GridCols give the global core-grid dimensions across the
// whole array; on a single chip they equal Rows and Cols.
func (p Params) GridRows() int { return p.chipRows() * p.Rows }
func (p Params) GridCols() int { return p.chipCols() * p.Cols }

// NumCores returns the number of cores in the whole array.
func (p Params) NumCores() int { return p.GridRows() * p.GridCols() }

// ChipOf returns the chip (row-major over the chip array) hosting the
// core with the given global ID.
func (p Params) ChipOf(id int) int {
	gr, gc := id/p.GridCols(), id%p.GridCols()
	return (gr/p.Rows)*p.chipCols() + gc/p.Cols
}

// ExtBWOfChip returns the SDRAM-channel bandwidth of one chip: the
// per-chip override when configured, ExtBytesPerCycle otherwise. Every
// off-chip access asks, so p is a pointer: no copy of the whole Params.
func (p *Params) ExtBWOfChip(chip int) float64 {
	if chip >= 0 && chip < len(p.ExtBytesPerCycleByChip) {
		if bw := p.ExtBytesPerCycleByChip[chip]; bw > 0 {
			return bw
		}
	}
	return p.ExtBytesPerCycle
}

// Address map constants. The Epiphany has a flat 32-bit global address
// space: the upper 12 bits select a mesh node (6-bit row, 6-bit column)
// and the low 20 bits are the offset within that node's page. The E16G3
// occupies mesh rows 32-35 and columns 8-11, and external SDRAM is mapped
// at 0x8e000000 — matching the real device's memory map. A multi-chip
// array shares the flat space: the global core grid occupies one
// contiguous rectangle of node coordinates.
const (
	firstMeshRow = 32
	firstMeshCol = 8

	// ExtBase is the base address of external (off-chip SDRAM) memory.
	ExtBase uint32 = 0x8e000000
	// ExtSize is the modeled external memory size (32 MB, as on the
	// paper's experimental board).
	ExtSize = 32 * 1024 * 1024
)

// The external window ExtBase..ExtBase+ExtSize occupies node row 35,
// columns 32-63 of the 6-bit coordinate space.
const (
	extNodeRow      = int(ExtBase >> 26)        // 35
	extNodeColFirst = int(ExtBase >> 20 & 0x3f) // 32
	extNodeColLast  = extNodeColFirst + ExtSize>>20 - 1
)

// meshOrigin places the global core grid in the 6-bit node-coordinate
// space. The classic E16G3 origin (32, 8) is kept whenever the grid fits
// there without touching the external-memory window, so every
// previously-valid topology keeps its exact historical addresses; grids
// too large for the classic placement relocate to origin (0, 0). ok is
// false when no collision-free placement exists.
func (p Params) meshOrigin() (row, col int, ok bool) {
	r, c := p.GridRows(), p.GridCols()
	fits := func(or, oc int) bool {
		if or+r > 64 || oc+c > 64 {
			return false
		}
		// Collision with the external window: the grid rectangle covers
		// node row extNodeRow and overlaps the window's column range.
		return !(or <= extNodeRow && extNodeRow < or+r &&
			oc <= extNodeColLast && oc+c > extNodeColFirst)
	}
	if fits(firstMeshRow, firstMeshCol) {
		return firstMeshRow, firstMeshCol, true
	}
	if fits(0, 0) {
		return 0, 0, true
	}
	return 0, 0, false
}

// coreBase returns the base address of the local page of the core at
// global grid position (row, col).
func (p Params) coreBase(row, col int) uint32 {
	or, oc, _ := p.meshOrigin()
	id := uint32(or+row)<<6 | uint32(oc+col)
	return id << 20
}

// tileOf returns the global grid coordinates encoded in a core-mapped
// address (not validated against the configured grid).
func (p Params) tileOf(addr uint32) (row, col int) {
	or, oc, _ := p.meshOrigin()
	id := addr >> 20
	return int(id>>6) - or, int(id&0x3f) - oc
}

// dist returns the XY-route cost components between the tiles of two
// core-mapped addresses: the Manhattan hop count on the global grid and
// the number of chip boundaries (eLink bridges) the route crosses. Both
// addresses must be core-mapped (not external).
func (p Params) dist(a, b uint32) (hops, bridges int) {
	ar, ac := p.tileOf(a)
	br, bc := p.tileOf(b)
	return abs(ar-br) + abs(ac-bc), p.bridgesBetween(ar, ac, br, bc)
}

// bridgesBetween counts the chip boundaries an XY route between two
// global grid positions crosses: the Manhattan distance between the two
// chip coordinates (a dimension-ordered route crosses each boundary
// exactly once per chip-row and chip-column of separation).
func (p Params) bridgesBetween(ar, ac, br, bc int) int {
	if p.NumChips() == 1 {
		return 0
	}
	return abs(ar/p.Rows-br/p.Rows) + abs(ac/p.Cols-bc/p.Cols)
}
