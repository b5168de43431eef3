// Package machine defines the abstract instrumented processor that the
// mapped SAR kernels run on. A kernel performs its real arithmetic in Go —
// producing real images — while charging the machine for every abstract
// operation it would execute (fused multiply-adds, integer address
// arithmetic, loads, stores, software square roots and trigonometry). Each
// machine implementation translates that operation stream into elapsed
// cycles according to its own timing model:
//
//   - emu.Core models an Epiphany core: dual-issue FPU/IALU, single-cycle
//     local-store accesses, stalling remote and off-chip reads, posted
//     writes, software square root and trigonometry.
//   - refcpu.CPU models the sequential Intel reference: wide superscalar
//     issue, hardware sqrt/divide, a three-level cache hierarchy in front
//     of DRAM.
//
// Kernels charge arithmetic in batches: an FFBP merge pixel charges three
// precomputed Ops, one before each of its memory accesses. Each machine's
// Charge says when a batch costs the same cycles, to the bit, as its
// operations charged one kind at a time. The FFBP kernels go one step
// further and charge a whole merge beam, or a stage-0 row, in one
// ChargeBeam call, which costs the same cycles, to the bit, as the
// per-pixel Charge, Load and Store calls that Beam lists: a machine may
// compute once what is fixed for the beam (each batch's price, each
// buffer's address class) and add its integer counters once. It walks
// the beam's Segments, over which every pixel makes the same calls, and
// makes the per-pixel order's float additions one by one, or in closed
// form where float64 adds exactly in any order: emu adds a segment's
// pixels as integers, where every addend and partial sum is an integer
// below 2^53, and refcpu a beam's pixels as multiples of its clock's
// binade spacing, where no sum leaves the binade [2^e, 2^(e+1)) and no
// addend rounds to it with a tie.
//
// The same kernel source therefore yields both the computed result and a
// per-machine execution-time estimate, which is exactly the comparison the
// paper's Table I makes.
package machine

import "sync"

// Ops counts a batch of abstract arithmetic operations by kind: fused
// multiply-adds (the Epiphany FPU executes one per cycle; the reference
// CPU has no FMA and issues a multiply and an add), other
// single-precision floating-point operations, integer/address ALU
// operations, and floating-point divides, square roots and
// trigonometric/transcendental evaluations (sincos, atan2, acos — one
// per call).
type Ops struct {
	FMA, Flop, IOp, Div, Sqrt, Trig int
}

// Machine is the operation-stream sink kernels charge as they execute.
type Machine interface {
	// Charge charges the operations counted in o.
	Charge(o Ops)
	// Load charges a read of n bytes at addr. The machine classifies the
	// address (local bank / remote core / off-chip / cache hierarchy) and
	// applies the corresponding cost.
	Load(addr uint32, n int)
	// Store charges a write of n bytes at addr.
	Store(addr uint32, n int)
	// ChargeBeam charges the calls b lists, with the cycles they cost one
	// call at a time.
	ChargeBeam(b Beam)
}

// Beam is one FFBP merge beam's charges, pixel by pixel: pixel i charges
// Pixel[0], loads the minus child's sample from Src[0], charges Pixel[1],
// loads the plus child's sample from Src[1], charges Pixel[2] and stores
// element Out+i of Dst. Runs[k] holds child k's samples as the runs
// geom.NearestRuns finds: run {first, last, o} gives pixels first..last
// the elements Base[k]+o, Base[k]+o+1, ... of Src[k], or loads nothing
// when o is -1, for a sample outside its child's grid. Both children's
// runs cover the pixels 0..Len()-1 in order. Every access moves one
// 8-byte element, and each buffer lies in one region of the address
// space, as the buffers NewBufC allocates do. A stage-0 row is a beam
// too: one run of its pulse for child 0, one run of -1 for child 1, and
// a zero Pixel[2], which adds nothing.
type Beam struct {
	Pixel [3]Ops
	Src   [2]*BufC
	Base  [2]int
	Runs  [2][][3]int32
	Dst   *BufC
	Out   int
}

// Len returns the number of pixels in the beam.
func (b *Beam) Len() int {
	if r := b.Runs[0]; len(r) > 0 {
		return int(r[len(r)-1][1]) + 1
	}
	return 0
}

// A Segment is a maximal range of a beam's pixels over which neither
// child's run ends: pixels First..First+Len-1, which load the elements
// Base[k]+Off[k], Base[k]+Off[k]+1, ... of Src[k], or nothing from child
// k when Off[k] is -1. Every pixel of a segment makes the same calls.
type Segment struct {
	First, Len int
	Off        [2]int
}

// Segments walks a beam's segments in pixel order.
type Segments struct {
	runs  [2][][3]int32 // each child's runs from the one holding pixel next on
	first int32         // the first pixel not walked yet
}

// Segments returns a walk before b's first segment.
func (b *Beam) Segments() Segments { return Segments{runs: b.Runs} }

// Next returns the next segment, or false after the last.
func (w *Segments) Next() (Segment, bool) {
	if len(w.runs[0]) == 0 {
		return Segment{}, false
	}
	last := min(w.runs[0][0][1], w.runs[1][0][1])
	s := Segment{First: int(w.first), Len: int(last-w.first) + 1}
	for k, runs := range w.runs {
		r := runs[0]
		s.Off[k] = -1
		if r[2] >= 0 {
			s.Off[k] = int(r[2] + w.first - r[0])
		}
		if r[1] == last {
			w.runs[k] = runs[1:]
		}
	}
	w.first = last + 1
	return s, true
}

// Alloc hands out address ranges in some region of a machine's address
// space, so kernels can place data "in local memory" or "in external
// SDRAM" and have loads and stores costed accordingly.
type Alloc interface {
	// Alloc reserves n bytes and returns the base address.
	Alloc(n int) (uint32, error)
}

// BufC is a complex64 array bound to an address range: element i lives at
// Addr + 8*i. The Data slice holds the actual values the kernel computes
// with; the address is only used for cost classification.
type BufC struct {
	Addr uint32
	Data []complex64
}

// NewBufC allocates n complex64 elements from a.
func NewBufC(a Alloc, n int) (*BufC, error) {
	addr, err := a.Alloc(8 * n)
	if err != nil {
		return nil, err
	}
	return &BufC{Addr: addr, Data: make([]complex64, n)}, nil
}

// ElemAddr returns the address of element i.
func (b *BufC) ElemAddr(i int) uint32 { return b.Addr + uint32(8*i) }

// Load reads element i, charging m for an 8-byte load.
func (b *BufC) Load(m Machine, i int) complex64 {
	m.Load(b.ElemAddr(i), 8)
	return b.Data[i]
}

// Store writes element i, charging m for an 8-byte store. The paper notes
// that representing complex numbers as a struct forces single 64-bit MOVs
// instead of two 32-bit MOVs; an 8-byte transfer models exactly that.
func (b *BufC) Store(m Machine, i int, v complex64) {
	m.Store(b.ElemAddr(i), 8)
	b.Data[i] = v
}

// BufF is a float32 array bound to an address range: element i lives at
// Addr + 4*i.
type BufF struct {
	Addr uint32
	Data []float32
}

// NewBufF allocates n float32 elements from a.
func NewBufF(a Alloc, n int) (*BufF, error) {
	addr, err := a.Alloc(4 * n)
	if err != nil {
		return nil, err
	}
	return &BufF{Addr: addr, Data: make([]float32, n)}, nil
}

// ElemAddr returns the address of element i.
func (b *BufF) ElemAddr(i int) uint32 { return b.Addr + uint32(4*i) }

// Load reads element i, charging m for a 4-byte load.
func (b *BufF) Load(m Machine, i int) float32 {
	m.Load(b.ElemAddr(i), 4)
	return b.Data[i]
}

// Store writes element i, charging m for a 4-byte store.
func (b *BufF) Store(m Machine, i int, v float32) {
	m.Store(b.ElemAddr(i), 4)
	b.Data[i] = v
}

// Bump is a bump allocator over [base, base+size). It is safe for
// concurrent use: shared regions (a chip's external SDRAM) are allocated
// from by several simulated cores at once.
type Bump struct {
	mu          sync.Mutex
	next, limit uint32
}

// NewBump returns a bump allocator over the given region.
func NewBump(base uint32, size int) *Bump {
	return &Bump{next: base, limit: base + uint32(size)}
}

// Alloc reserves n bytes, 8-byte aligned.
func (b *Bump) Alloc(n int) (uint32, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a := (b.next + 7) &^ 7
	if n < 0 || a+uint32(n) > b.limit || a+uint32(n) < a {
		return 0, ErrOutOfMemory
	}
	b.next = a + uint32(n)
	return a, nil
}

// ErrOutOfMemory is returned when an allocation does not fit its region —
// e.g. when a kernel tries to place more than 8 KB in one Epiphany local
// memory bank.
var ErrOutOfMemory = errOOM{}

type errOOM struct{}

func (errOOM) Error() string { return "machine: out of memory in allocation region" }
