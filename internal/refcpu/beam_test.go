package refcpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sarmany/internal/machine"
	"sarmany/internal/obs"
)

// chargePixels makes the calls b stands for one Charge, Load or Store at
// a time: ChargeBeam's oracle.
func chargePixels(m machine.Machine, b machine.Beam) {
	for i := range len(b.Offs) / 2 {
		for k := range 2 {
			m.Charge(b.Pixel[k])
			if off := b.Offs[2*i+k]; off >= 0 {
				b.Src[k].Load(m, b.Base[k]+int(off))
			}
		}
		m.Charge(b.Pixel[2])
		m.Store(b.Dst.ElemAddr(b.Out+i), 8)
	}
}

// beamCPU charges 300 seeded beams to a traced CPU with charge. The beams
// draw up to 40 pixels of random batches over three 4 MB buffers; their
// child offsets run up by one per pixel or are −1 in runs, and start at
// one of a few reused places or anywhere, so accesses are served at every
// level. Beam 1 is all −1 and beam 2 empty.
func beamCPU(t *testing.T, charge func(*CPU, machine.Beam)) (*CPU, *obs.Tracer) {
	cpu := New(I7M620())
	tr := obs.NewTracer(cpu.P.Clock)
	cpu.SetTracer(tr)
	var bufs [3]*machine.BufC
	for i := range bufs {
		var err error
		if bufs[i], err = machine.NewBufC(cpu.Mem(), 1<<19); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	place := func(n int) int {
		if rng.Intn(2) == 0 {
			return rng.Intn(8) << 12
		}
		return rng.Intn(1<<19 - n)
	}
	for j := range 300 {
		b := machine.Beam{Dst: bufs[rng.Intn(3)]}
		for k := range b.Pixel {
			b.Pixel[k] = machine.Ops{FMA: rng.Intn(16), Flop: rng.Intn(4), IOp: rng.Intn(24),
				Div: rng.Intn(2), Sqrt: rng.Intn(2), Trig: rng.Intn(2)}
		}
		n := 1 + rng.Intn(40)
		if j == 2 {
			n = 0
		}
		b.Out = place(n)
		b.Offs = make([]int32, 2*n)
		for k := range 2 {
			b.Src[k], b.Base[k] = bufs[rng.Intn(3)], place(2*n)
			for i := 0; i < n; {
				off := int32(-1)
				if j != 1 && rng.Intn(3) > 0 {
					off = int32(rng.Intn(n))
				}
				for run := min(n-i, 1+rng.Intn(8)); run > 0; run, i = run-1, i+1 {
					b.Offs[2*i+k] = off
					if off >= 0 {
						off++
					}
				}
			}
		}
		charge(cpu, b)
	}
	return cpu, tr
}

// TestChargeBeamMatchesPerPixel: ChargeBeam leaves the CPU as the
// per-pixel calls do — its cycles as float64 bits, every counter, the
// metrics, the cache contents and the trace spans.
func TestChargeBeamMatchesPerPixel(t *testing.T) {
	want, wantTr := beamCPU(t, func(c *CPU, b machine.Beam) { chargePixels(c, b) })
	got, gotTr := beamCPU(t, func(c *CPU, b machine.Beam) { c.ChargeBeam(b) })
	if g, w := fmt.Sprintf("%v %+v", got.Cycles(), got.Stats), fmt.Sprintf("%v %+v", want.Cycles(), want.Stats); g != w {
		t.Errorf("beam      %s\nper pixel %s", g, w)
	}
	if g, w := fmt.Sprintf("%+v", got.Metrics().Snapshot()), fmt.Sprintf("%+v", want.Metrics().Snapshot()); g != w {
		t.Errorf("metrics:\nbeam      %s\nper pixel %s", g, w)
	}
	if !reflect.DeepEqual(got.hier, want.hier) {
		t.Error("the cache contents differ")
	}
	g, w := gotTr.Tracks()[0].Spans(), wantTr.Tracks()[0].Spans()
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Errorf("%d spans from the beam calls differ from the %d per-pixel spans", len(g), len(w))
	}
	for lvl, k := range want.Stats.Served {
		if k == 0 {
			t.Errorf("no access served at %v", Level(lvl))
		}
	}
}
