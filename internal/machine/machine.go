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
// operations charged one kind at a time.
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
	// Cycles returns the cycles elapsed so far on this machine, including
	// any pending dual-issue window.
	Cycles() float64
	// ClockHz returns the machine's clock frequency, for converting
	// cycles to seconds.
	ClockHz() float64
}

// Seconds returns m's elapsed time in seconds.
func Seconds(m Machine) float64 {
	return m.Cycles() / m.ClockHz()
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
