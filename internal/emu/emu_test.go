package emu

import (
	"math"
	"testing"

	"sarmany/internal/machine"
)

func TestNewChipLayout(t *testing.T) {
	ch := New(E16G3())
	if len(ch.Cores) != 16 {
		t.Fatalf("%d cores", len(ch.Cores))
	}
	if ch.Cores[5].Row != 1 || ch.Cores[5].Col != 1 {
		t.Errorf("core 5 at (%d,%d)", ch.Cores[5].Row, ch.Cores[5].Col)
	}
	// Real E16G3 map: first core page at 0x80800000.
	if got := ch.P.coreBase(0, 0); got != 0x80800000 {
		t.Errorf("coreBase(0,0) = %#x", got)
	}
}

func TestParamsHelpers(t *testing.T) {
	p := E16G3()
	if p.NumCores() != 16 {
		t.Error("NumCores")
	}
	if E64().NumCores() != 64 {
		t.Error("E64 cores")
	}
	if p.WithMesh(2, 3).NumCores() != 6 {
		t.Error("WithMesh")
	}
}

func TestNewChipRejectsOversizedMesh(t *testing.T) {
	p := E16G3().WithMesh(65, 4) // no 6-bit placement holds 65 rows
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(p)
}

func TestNewChipRejectsBadBanking(t *testing.T) {
	p := E16G3()
	p.BankBytes = 1000
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(p)
}

func TestDualIssue(t *testing.T) {
	ch := New(E16G3())
	c := ch.Cores[0]
	c.Charge(machine.Ops{FMA: 100})
	c.Charge(machine.Ops{IOp: 60})
	if got := c.Cycles(); got != 100 {
		t.Errorf("dual-issue cycles = %v, want 100 (max of pipes)", got)
	}
	c.Charge(machine.Ops{IOp: 80}) // ialu now 140 > fpu 100
	if got := c.Cycles(); got != 140 {
		t.Errorf("cycles = %v, want 140", got)
	}
}

func TestSoftwareRoutineCosts(t *testing.T) {
	p := E16G3()
	ch := New(p)
	c := ch.Cores[0]
	c.Charge(machine.Ops{Sqrt: 2})
	c.Charge(machine.Ops{Div: 1})
	c.Charge(machine.Ops{Trig: 3})
	want := float64(2*p.SqrtFlops + p.DivFlops + 3*p.TrigFlops)
	if got := c.Cycles(); got != want {
		t.Errorf("software routines = %v cycles, want %v", got, want)
	}
}

func TestLocalAccessCost(t *testing.T) {
	ch := New(E16G3())
	c := ch.Cores[0]
	buf, err := machine.NewBufC(c.Bank(2), 16)
	if err != nil {
		t.Fatal(err)
	}
	buf.Store(c, 0, complex(1, 2))
	if v := buf.Load(c, 0); v != complex(1, 2) {
		t.Errorf("value %v", v)
	}
	// 2 x one double-word local access on the IALU pipe.
	if got := c.Cycles(); got != 2 {
		t.Errorf("local access cycles = %v, want 2", got)
	}
	if c.Stats.LocalLoads != 1 || c.Stats.LocalStores != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestBankCapacity(t *testing.T) {
	ch := New(E16G3())
	c := ch.Cores[0]
	// One bank holds exactly 8 KB = 1024 complex64 values — the paper's
	// "two pulses ... equal to 16,016 bytes" uses two banks.
	if _, err := machine.NewBufC(c.Bank(3), 1024); err != nil {
		t.Fatalf("1024 elements must fit a bank: %v", err)
	}
	if _, err := machine.NewBufC(c.Bank(3), 1); err == nil {
		t.Error("bank overflow not detected")
	}
}

func TestRemoteReadStall(t *testing.T) {
	p := E16G3()
	ch := New(p)
	c0 := ch.Cores[0]   // (0,0)
	c15 := ch.Cores[15] // (3,3): 6 hops away
	buf, err := machine.NewBufC(c15.Bank(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	buf.Load(c0, 0)
	want := p.RemoteReadBase + 2*6*p.RemoteHopCycles + 8/p.NoCBytesPerCycle
	if got := c0.Cycles(); math.Abs(got-want) > 1e-9 {
		t.Errorf("remote read = %v cycles, want %v", got, want)
	}
	if c0.Stats.RemoteReads != 1 {
		t.Errorf("stats %+v", c0.Stats)
	}
}

func TestRemoteWritePosted(t *testing.T) {
	ch := New(E16G3())
	c0, c1 := ch.Cores[0], ch.Cores[1]
	buf, err := machine.NewBufC(c1.Bank(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	buf.Store(c0, 0, 1)
	// Posted write: only the issue cycle, far below a read round trip.
	if got := c0.Cycles(); got > 2 {
		t.Errorf("posted remote write = %v cycles", got)
	}
	if c0.Stats.RemoteWrites != 1 {
		t.Errorf("stats %+v", c0.Stats)
	}
}

func TestExtReadStallAndWritePosted(t *testing.T) {
	p := E16G3()
	ch := New(p)
	c := ch.Cores[0]
	buf, err := machine.NewBufC(ch.Ext(), 100)
	if err != nil {
		t.Fatal(err)
	}
	buf.Load(c, 0)
	wantRead := p.ExtReadLatency + 8/p.ExtBytesPerCycle
	if got := c.Cycles(); math.Abs(got-wantRead) > 1e-9 {
		t.Errorf("ext read = %v cycles, want %v", got, wantRead)
	}
	before := c.Cycles()
	buf.Store(c, 1, 5)
	if got := c.Cycles() - before; got > 2 {
		t.Errorf("posted ext write = %v cycles", got)
	}
	if c.Stats.ExtReads != 1 || c.Stats.ExtWrites != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestClassifyPanicsOnBadAddress(t *testing.T) {
	ch := New(E16G3())
	c := ch.Cores[0]
	for _, addr := range []uint32{0, 0x7fffffff, ch.P.coreBase(0, 0) + 0x8000 /* beyond 32 KB */} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("address %#x accepted", addr)
				}
			}()
			c.Load(addr, 4)
		}()
	}
}

func TestBarrierContentionDrain(t *testing.T) {
	// Four cores each post 60 KB of external writes in a phase with almost
	// no compute: the barrier must complete only when the shared off-chip
	// channel has drained 240 KB.
	p := E16G3()
	ch := New(p)
	const bytesPerCore = 60 * 1024
	ch.Run(4, func(c *Core) {
		buf, err := machine.NewBufC(ch.Ext(), bytesPerCore/8)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < bytesPerCore/8; i++ {
			buf.Store(c, i, 1)
		}
		c.Barrier()
	})
	drain := 4 * bytesPerCore / p.ExtBytesPerCycle
	got := ch.MaxCycles()
	if got < drain*0.999 || got > drain*1.2 {
		t.Errorf("barrier time %v cycles, want ~%v (channel drain)", got, drain)
	}
}

func TestBarrierTakesMaxOfFinishTimes(t *testing.T) {
	ch := New(E16G3())
	ch.Run(4, func(c *Core) {
		c.Charge(machine.Ops{FMA: 1000 * (c.ID + 1)}) // core 3 is slowest: 4000 cycles
		c.Barrier()
		if got := c.Cycles(); got != 4000 {
			t.Errorf("core %d left barrier at %v, want 4000", c.ID, got)
		}
	})
}

func TestBarrierDeterministic(t *testing.T) {
	run := func() float64 {
		ch := New(E16G3())
		ext, _ := machine.NewBufC(ch.Ext(), 16*512)
		ch.Run(16, func(c *Core) {
			for phase := 0; phase < 5; phase++ {
				c.Charge(machine.Ops{FMA: 100 * (c.ID + phase)})
				for i := 0; i < 512; i++ {
					ext.Store(c, c.ID*512+i, complex64(complex(float32(i), 0)))
				}
				c.Barrier()
			}
		})
		return ch.MaxCycles()
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %v cycles, first run %v", i, got, first)
		}
	}
}

func TestDMAOverlapsCompute(t *testing.T) {
	p := E16G3()
	ch := New(p)
	c := ch.Cores[0]
	ext, err := machine.NewBufC(ch.Ext(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	local, err := machine.NewBufC(c.Bank(2), 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ext.Data {
		ext.Data[i] = complex(float32(i), 0)
	}
	d := c.DMACopyC(local, 0, ext, 0, 1024)
	// Long compute while the DMA runs.
	c.Charge(machine.Ops{FMA: 100000})
	c.DMAWait(d)
	if local.Data[7] != complex(7, 0) {
		t.Error("DMA did not copy data")
	}
	// The DMA (8 KB at 0.6 B/cycle ≈ 13.7k cycles) is fully hidden by the
	// 100k-cycle compute.
	got := c.Cycles()
	if got < 100000 || got > 101000 {
		t.Errorf("overlapped time %v cycles, want ~100000", got)
	}
}

func TestDMAWaitStallsWhenNotOverlapped(t *testing.T) {
	p := E16G3()
	ch := New(p)
	c := ch.Cores[0]
	ext, _ := machine.NewBufC(ch.Ext(), 1024)
	local, _ := machine.NewBufC(c.Bank(2), 1024)
	d := c.DMACopyC(local, 0, ext, 0, 1024)
	c.DMAWait(d)
	want := p.DMASetupCycles + p.ExtReadLatency + 8*1024/p.ExtBytesPerCycle
	if got := c.Cycles(); math.Abs(got-want) > 1 {
		t.Errorf("unoverlapped DMA = %v cycles, want ~%v", got, want)
	}
}

func TestDMASerializesDescriptors(t *testing.T) {
	p := E16G3()
	ch := New(p)
	c := ch.Cores[0]
	ext, _ := machine.NewBufC(ch.Ext(), 2048)
	local, _ := machine.NewBufC(c.Bank(2), 1024)
	d1 := c.DMACopyC(local, 0, ext, 0, 512)
	d2 := c.DMACopyC(local, 512, ext, 512, 512)
	c.DMAWait(d1)
	c.DMAWait(d2)
	// Two transfers cannot overlap on one engine: total at least twice the
	// single-transfer service time.
	single := p.ExtReadLatency + 8*512/p.ExtBytesPerCycle
	if got := c.Cycles(); got < 2*single {
		t.Errorf("two DMAs = %v cycles, want >= %v", got, 2*single)
	}
}

func TestLinkStreamsWithBackPressure(t *testing.T) {
	ch := New(E16G3())
	l := ch.Connect(0, 1, 2)
	var prodEnd, consEnd float64
	ch.Run(2, func(c *Core) {
		const blocks = 50
		switch c.ID {
		case 0:
			block := make([]complex64, 16)
			for i := 0; i < blocks; i++ {
				c.Charge(machine.Ops{FMA: 10}) // fast producer
				l.Send(c, block)
			}
			prodEnd = c.Cycles()
		case 1:
			for i := 0; i < blocks; i++ {
				v := l.Recv(c)
				if len(v) != 16 {
					t.Errorf("block size %d", len(v))
				}
				c.Charge(machine.Ops{FMA: 500}) // slow consumer
			}
			consEnd = c.Cycles()
		}
	})
	// Consumer-bound pipeline: ~50*500 cycles.
	if consEnd < 25000 || consEnd > 27000 {
		t.Errorf("consumer end %v", consEnd)
	}
	// Back-pressure keeps the producer within the buffer depth of the
	// consumer, far beyond its own 50*10+sends compute.
	if prodEnd < 20000 {
		t.Errorf("producer end %v, expected back-pressure near consumer pace", prodEnd)
	}
}

func TestLinkWrongCorePanics(t *testing.T) {
	ch := New(E16G3())
	l := ch.Connect(0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	l.Send(ch.Cores[2], []complex64{1})
}

func TestRunSubset(t *testing.T) {
	ch := New(E16G3())
	ran := make([]bool, 16)
	ch.Run(13, func(c *Core) {
		ran[c.ID] = true
		c.Barrier()
	})
	for i := 0; i < 13; i++ {
		if !ran[i] {
			t.Errorf("core %d did not run", i)
		}
	}
	for i := 13; i < 16; i++ {
		if ran[i] {
			t.Errorf("core %d should not have run", i)
		}
	}
}

func TestTotalStatsAggregates(t *testing.T) {
	ch := New(E16G3())
	ch.Run(4, func(c *Core) {
		c.Charge(machine.Ops{FMA: 10})
		c.Charge(machine.Ops{Trig: 1})
	})
	s := ch.TotalStats()
	if s.FMA != 40 || s.Trig != 4 {
		t.Errorf("totals %+v", s)
	}
}

func TestTimeSeconds(t *testing.T) {
	ch := New(E16G3())
	ch.Cores[0].Charge(machine.Ops{FMA: 1000})
	if got := ch.Time(); math.Abs(got-1e-6) > 1e-12 {
		t.Errorf("Time = %v, want 1 µs", got)
	}
}
