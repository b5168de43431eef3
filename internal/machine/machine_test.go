package machine

import (
	"errors"
	"testing"
)

// countMachine is a Machine that records charges, for testing the buffer
// helpers.
type countMachine struct {
	loads, stores    int
	loadB, storeB    int
	lastLoad, lastSt uint32
}

func (c *countMachine) Charge(Ops) {}
func (c *countMachine) Load(addr uint32, n int) {
	c.loads++
	c.loadB += n
	c.lastLoad = addr
}
func (c *countMachine) Store(addr uint32, n int) {
	c.stores++
	c.storeB += n
	c.lastSt = addr
}
func (c *countMachine) Cycles() float64  { return 0 }
func (c *countMachine) ClockHz() float64 { return 1e9 }

func TestBumpAllocAligned(t *testing.T) {
	b := NewBump(0x1000, 64)
	a1, err := b.Alloc(3)
	if err != nil || a1 != 0x1000 {
		t.Fatalf("first alloc %#x err %v", a1, err)
	}
	a2, err := b.Alloc(8)
	if err != nil || a2 != 0x1008 {
		t.Fatalf("second alloc %#x (want 8-byte aligned) err %v", a2, err)
	}
	if b.Used() != 16 {
		t.Errorf("Used = %d", b.Used())
	}
}

func TestBumpAllocExhaustion(t *testing.T) {
	b := NewBump(0, 16)
	if _, err := b.Alloc(16); err != nil {
		t.Fatalf("fitting alloc failed: %v", err)
	}
	if _, err := b.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("expected ErrOutOfMemory, got %v", err)
	}
	if _, err := NewBump(0, 8).Alloc(-1); err == nil {
		t.Error("negative alloc accepted")
	}
}

func TestBufCAddressesAndCharges(t *testing.T) {
	m := &countMachine{}
	b, err := NewBufC(NewBump(0x2000, 1024), 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.ElemAddr(3) != 0x2000+24 {
		t.Errorf("ElemAddr(3) = %#x", b.ElemAddr(3))
	}
	b.Store(m, 3, complex(1, 2))
	if got := b.Load(m, 3); got != complex(1, 2) {
		t.Errorf("round trip = %v", got)
	}
	if m.loads != 1 || m.stores != 1 || m.loadB != 8 || m.storeB != 8 {
		t.Errorf("charges: %+v", m)
	}
	if m.lastLoad != 0x2000+24 || m.lastSt != 0x2000+24 {
		t.Errorf("addresses: %#x %#x", m.lastLoad, m.lastSt)
	}
}

func TestBufFAddressesAndCharges(t *testing.T) {
	m := &countMachine{}
	b, err := NewBufF(NewBump(0x3000, 64), 4)
	if err != nil {
		t.Fatal(err)
	}
	b.Store(m, 2, 2.5)
	if got := b.Load(m, 2); got != 2.5 {
		t.Errorf("round trip = %v", got)
	}
	if m.loadB != 4 || m.storeB != 4 {
		t.Errorf("byte charges: %+v", m)
	}
	if b.ElemAddr(2) != 0x3000+8 {
		t.Errorf("ElemAddr(2) = %#x", b.ElemAddr(2))
	}
}

func TestNewBufTooLarge(t *testing.T) {
	if _, err := NewBufC(NewBump(0, 16), 10); err == nil {
		t.Error("oversized BufC accepted")
	}
	if _, err := NewBufF(NewBump(0, 8), 10); err == nil {
		t.Error("oversized BufF accepted")
	}
}

func TestSeconds(t *testing.T) {
	m := &countMachine{}
	if s := Seconds(m); s != 0 {
		t.Errorf("Seconds = %v", s)
	}
}
