package machine

import (
	"errors"
	"math/rand"
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
func (c *countMachine) ChargeBeam(Beam) {}

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
	// 3 bytes and 5 of padding, then 8: the next block starts 16 bytes in.
	if a3, err := b.Alloc(1); err != nil || a3 != 0x1010 {
		t.Errorf("third alloc %#x err %v, want 0x1010", a3, err)
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

// TestSegments walks seeded random runs: the segments cover the pixels
// 0..Len()-1 in order, end exactly where a run of either child ends, and
// give each pixel its run's offset, or -1.
func TestSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 500 {
		n := rng.Intn(60)
		var b Beam
		var offs [2][]int // each pixel's offset, from the runs
		ends := map[int]bool{}
		for k := range 2 {
			for i := 0; i < n; {
				run := min(n-i, 1+rng.Intn(9))
				o := int32(-1)
				if rng.Intn(3) > 0 {
					o = int32(rng.Intn(100))
				}
				b.Runs[k] = append(b.Runs[k], [3]int32{int32(i), int32(i + run - 1), o})
				for p := range run {
					if o < 0 {
						offs[k] = append(offs[k], -1)
					} else {
						offs[k] = append(offs[k], int(o)+p)
					}
				}
				i += run
				ends[i-1] = true
			}
		}
		if b.Len() != n {
			t.Fatalf("trial %d: Len %d, want %d", trial, b.Len(), n)
		}
		next := 0
		w := b.Segments()
		for s, ok := w.Next(); ok; s, ok = w.Next() {
			if s.First != next || s.Len < 1 {
				t.Fatalf("trial %d: segment %+v after pixel %d", trial, s, next-1)
			}
			for p := s.First; p < s.First+s.Len; p++ {
				if p < s.First+s.Len-1 && ends[p] {
					t.Fatalf("trial %d: segment %+v spans the run end at pixel %d", trial, s, p)
				}
				for k := range 2 {
					got := s.Off[k]
					if got >= 0 {
						got += p - s.First
					}
					if got != offs[k][p] {
						t.Fatalf("trial %d: segment %+v gives child %d pixel %d offset %d, want %d",
							trial, s, k, p, got, offs[k][p])
					}
				}
			}
			if last := s.First + s.Len - 1; !ends[last] {
				t.Fatalf("trial %d: segment %+v ends at pixel %d, where no run ends", trial, s, last)
			}
			next = s.First + s.Len
		}
		if next != n {
			t.Fatalf("trial %d: segments end at pixel %d of %d", trial, next, n)
		}
	}
}
