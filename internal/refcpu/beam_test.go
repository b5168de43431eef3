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
// a time: ChargeBeam's oracle. It expands the runs itself.
func chargePixels(m machine.Machine, b machine.Beam) {
	offs := [2][]int32{expand(b.Runs[0]), expand(b.Runs[1])}
	for i := range offs[0] {
		for k := range 2 {
			m.Charge(b.Pixel[k])
			if off := offs[k][i]; off >= 0 {
				b.Src[k].Load(m, b.Base[k]+int(off))
			}
		}
		m.Charge(b.Pixel[2])
		m.Store(b.Dst.ElemAddr(b.Out+i), 8)
	}
}

// expand returns the offset of each pixel the runs cover, in order.
func expand(runs [][3]int32) []int32 {
	var offs []int32
	for _, r := range runs {
		for p := r[0]; p <= r[1]; p++ {
			if r[2] < 0 {
				offs = append(offs, -1)
			} else {
				offs = append(offs, r[2]+p-r[0])
			}
		}
	}
	return offs
}

// beamCPU charges 300 seeded beams to a traced CPU with charge. The beams
// draw up to 40 pixels of random batches over three 4 MB buffers; each
// child's runs of up to 8 pixels have offsets that run up by one per
// pixel or are −1, and start at one of a few reused places or anywhere,
// so accesses are served at every level. Beam 1 is all −1 and beam 2
// empty.
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
		for k := range 2 {
			b.Src[k], b.Base[k] = bufs[rng.Intn(3)], place(2*n)
			for i := 0; i < n; {
				off := int32(-1)
				if j != 1 && rng.Intn(3) > 0 {
					off = int32(rng.Intn(n))
				}
				run := min(n-i, 1+rng.Intn(8))
				b.Runs[k] = append(b.Runs[k], [3]int32{int32(i), int32(i + run - 1), off})
				i += run
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

// BenchmarkChargeBeam prices one paper-scale merge beam per operation:
// 1,001 pixels with the kernels' three per-pixel batches, each child's
// runs 12 pixels long with every seventh outside its grid. Successive
// beams read successive pairs of child rows of one 1024 x 1001 stage
// buffer and store successive rows of another, as SeqFFBP's merges do,
// so the cache serves them as it serves a merge.
func BenchmarkChargeBeam(b *testing.B) {
	const nb, rows = 1001, 1024
	cpu := New(I7M620())
	src, _ := machine.NewBufC(cpu.Mem(), rows*nb)
	dst, _ := machine.NewBufC(cpu.Mem(), rows*nb)
	var runs [][3]int32
	for s := int32(0); s < nb; s += 12 {
		o := s
		if len(runs)%7 == 6 {
			o = -1
		}
		runs = append(runs, [3]int32{s, min(s+11, nb-1), o})
	}
	beam := machine.Beam{
		Pixel: [3]machine.Ops{{FMA: 13, Flop: 2, IOp: 4, Div: 2, Sqrt: 2, Trig: 2}, {FMA: 2, Flop: 2, IOp: 4}, {Flop: 2}},
		Src:   [2]*machine.BufC{src, src},
		Runs:  [2][][3]int32{runs, runs},
		Dst:   dst,
	}
	for i := range b.N {
		row := i % (rows / 2)
		beam.Base = [2]int{2 * row * nb, (2*row + 1) * nb}
		beam.Out = (i % rows) * nb
		cpu.ChargeBeam(beam)
	}
}
