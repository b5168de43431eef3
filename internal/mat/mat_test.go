package mat

import (
	"testing"
	"testing/quick"
)

func TestNewCZeroed(t *testing.T) {
	m := NewC(3, 4)
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if m.At(r, c) != 0 {
				t.Fatalf("element (%d,%d) not zero", r, c)
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := NewC(2, 2)
	m.Set(1, 0, complex(1, 2))
	if got := m.At(1, 0); got != complex(1, 2) {
		t.Errorf("At = %v", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewC(2, 3)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, 3) },
		func() { m.At(-1, 0) },
		func() { m.Set(0, -1, 0) },
		func() { m.Row(2) },
		func() { m.View(1, 1, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := NewC(4, 5)
	v := m.View(1, 2, 2, 3)
	v.Set(0, 0, complex(7, 0))
	if m.At(1, 2) != complex(7, 0) {
		t.Error("view write not visible in parent")
	}
	m.Set(2, 4, complex(0, 9))
	if v.At(1, 2) != complex(0, 9) {
		t.Error("parent write not visible in view")
	}
	if v.Rows != 2 || v.Cols != 3 || v.Stride != 5 {
		t.Errorf("view shape %d %d stride %d", v.Rows, v.Cols, v.Stride)
	}
}

func TestViewOfView(t *testing.T) {
	m := NewC(6, 6)
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			m.Set(r, c, complex(float32(r), float32(c)))
		}
	}
	v := m.View(1, 1, 4, 4).View(1, 1, 2, 2)
	if v.At(0, 0) != complex(2, 2) || v.At(1, 1) != complex(3, 3) {
		t.Errorf("nested view wrong: %v %v", v.At(0, 0), v.At(1, 1))
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewC(3, 3)
	m.Set(1, 1, 5)
	v := m.View(0, 0, 2, 2)
	cl := v.Clone()
	if !cl.Equal(v) {
		t.Fatal("clone differs from source")
	}
	cl.Set(1, 1, 9)
	if m.At(1, 1) != 5 {
		t.Error("clone writes leaked into parent")
	}
	if cl.Stride != cl.Cols {
		t.Error("clone not compact")
	}
}

func TestZeroFillThroughView(t *testing.T) {
	m := NewC(3, 3)
	m.Fill(complex(1, 1))
	v := m.View(1, 1, 2, 2)
	v.Fill(0)
	if m.At(0, 0) != complex(1, 1) {
		t.Error("Fill on view touched outside region")
	}
	if m.At(1, 1) != 0 || m.At(2, 2) != 0 {
		t.Error("Fill on view did not clear region")
	}
}

func TestEqualAndMaxAbsDiff(t *testing.T) {
	a := NewC(2, 2)
	b := NewC(2, 2)
	if !a.Equal(b) {
		t.Error("zero matrices should be equal")
	}
	b.Set(1, 1, complex(0.5, -0.25))
	if a.Equal(b) {
		t.Error("different matrices reported equal")
	}
	if d := a.MaxAbsDiff(b); d != 0.5 {
		t.Errorf("MaxAbsDiff = %v, want 0.5", d)
	}
	c := NewC(2, 3)
	if a.Equal(c) {
		t.Error("different shapes reported equal")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MaxAbsDiff shape mismatch should panic")
			}
		}()
		a.MaxAbsDiff(c)
	}()
}

func TestFMatrix(t *testing.T) {
	m := NewF(2, 3)
	m.Set(0, 1, 2.5)
	if m.At(0, 1) != 2.5 {
		t.Errorf("At = %v", m.At(0, 1))
	}
	if len(m.Row(1)) != 3 {
		t.Error("Row length")
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	f := func(n, p uint8) bool {
		np := int(n)
		pp := int(p)%16 + 1
		slices := Partition(np, pp)
		if len(slices) != pp {
			return false
		}
		lo := 0
		for _, s := range slices {
			if s.Lo != lo || s.Hi < s.Lo {
				return false
			}
			lo = s.Hi
		}
		if lo != np {
			return false
		}
		// Balanced: sizes differ by at most one.
		min, max := slices[0].Len(), slices[0].Len()
		for _, s := range slices {
			if s.Len() < min {
				min = s.Len()
			}
			if s.Len() > max {
				max = s.Len()
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionPaperConfig(t *testing.T) {
	// 1024 pulses over 16 cores: 64 rows each, exactly.
	slices := Partition(1024, 16)
	for i, s := range slices {
		if s.Len() != 64 {
			t.Fatalf("slice %d has %d rows, want 64", i, s.Len())
		}
	}
}

func TestPartitionInvalid(t *testing.T) {
	for _, c := range []struct{ n, p int }{{-1, 4}, {4, 0}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Partition(%d,%d) should panic", c.n, c.p)
				}
			}()
			Partition(c.n, c.p)
		}()
	}
}
