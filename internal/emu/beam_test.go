package emu

import (
	"fmt"
	"math/rand"
	"testing"

	"sarmany/internal/fault"
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

// randomBeam draws a beam over the given buffers: up to 40 pixels of
// random batches, and each child's runs of up to 8 pixels, whose offsets
// run up by one per pixel or are −1, as a merge beam's are. kind 1 draws
// a beam all −1, kind 2 an empty one, and kind 3 one of a stage-0 row's
// shape: child 0 one run of samples, child 1 one run of −1 and a zero
// third batch.
func randomBeam(rng *rand.Rand, src [2]*machine.BufC, dst *machine.BufC, kind int) machine.Beam {
	b := machine.Beam{Src: src, Dst: dst}
	for k := range b.Pixel {
		b.Pixel[k] = machine.Ops{FMA: rng.Intn(16), Flop: rng.Intn(4), IOp: rng.Intn(24),
			Div: rng.Intn(2), Sqrt: rng.Intn(2), Trig: rng.Intn(2)}
	}
	n := 1 + rng.Intn(40)
	if kind == 2 {
		n = 0
	}
	if kind == 3 {
		b.Pixel[2] = machine.Ops{}
	}
	b.Out = rng.Intn(len(dst.Data) - n + 1)
	for k := range 2 {
		b.Base[k] = rng.Intn((len(src[k].Data)-n)/2 + 1)
		room := len(src[k].Data) - b.Base[k] - n
		for i := 0; i < n; {
			run := min(n-i, 1+rng.Intn(8))
			off := int32(-1)
			if kind == 0 && rng.Intn(3) > 0 || kind == 3 && k == 0 {
				off = int32(rng.Intn(room + 1))
			}
			if kind == 3 {
				run = n
			}
			b.Runs[k] = append(b.Runs[k], [3]int32{int32(i), int32(i + run - 1), off})
			i += run
		}
	}
	return b
}

// A beamSetup is a chip that TestChargeBeamMatchesPerPixel charges beams
// on: a 2x2 array of 2x2-core chips, traced with progress cells or not,
// under a fault plan or none, with its clocks at 0 or late.
type beamSetup struct {
	name          string
	watched, late bool
	plan          *fault.Plan
}

// beamSetups are traced with progress cells, a derated core and a scaled
// off-chip channel, where ChargeBeam adds every pixel; fault-free and
// untraced, where it adds most of a segment in closed form; with the
// channel scaled alone, whose 10⅔-cycle off-chip service is not an
// integer; and fault-free with late clocks that are not integers, which
// adding integers rounds as they pass 2^52. The last two add every pixel
// again.
var beamSetups = []beamSetup{
	{"traced", true, false, &fault.Plan{Derates: []fault.Derate{{Core: 5, Factor: 1.5}}, ExtScale: 0.75}},
	{"fault-free", false, false, nil},
	{"ext-scale", false, false, &fault.Plan{ExtScale: 0.75}},
	{"late-clock", false, true, nil},
}

// beamChip runs the same seeded beams on every core of the set-up's
// chip, charging each beam with charge. Each core draws its buffers from
// its own bank, a neighbour's, a core's on another chip and external
// memory, and its fourth beam has a stage-0 row's shape. It returns the
// chip, each core's state after its beams, before the closing barrier,
// and the beams' segments of 3 or more pixels.
func (bs beamSetup) beamChip(charge func(*Core, machine.Beam)) (*Chip, []string, int) {
	ch := New(E16G3().WithMesh(2, 2).WithChips(2, 2))
	if bs.watched {
		ch.SetTracer(obs.NewTracer(ch.P.Clock))
		ch.EnableProgress()
	}
	if bs.plan != nil {
		ch.SetFaults(fault.MustCompile(*bs.plan))
	}
	n := len(ch.Cores)
	local := make([]*machine.BufC, n)
	for i, c := range ch.Cores {
		local[i], _ = machine.NewBufC(c.Bank(2), 64)
	}
	ext, _ := machine.NewBufC(ch.Ext(), 1024)
	beams := make([][]machine.Beam, n)
	long := 0
	for i := range beams {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		bufs := []*machine.BufC{local[i], local[i^1], local[(i+n/2)%n], ext}
		pick := func() *machine.BufC { return bufs[rng.Intn(len(bufs))] }
		for j := range 24 {
			b := randomBeam(rng, [2]*machine.BufC{pick(), pick()}, pick(), min(j, 4)%4)
			w := b.Segments()
			for s, ok := w.Next(); ok; s, ok = w.Next() {
				if s.Len >= 3 {
					long++
				}
			}
			beams[i] = append(beams[i], b)
		}
	}
	state := make([]string, n)
	ch.Run(0, func(c *Core) {
		if bs.late {
			// Each core passes 2^52 at another point of its beams.
			c.now = 1<<52 - 0.5 - 997*float64(c.ID+1)
		}
		for _, b := range beams[c.ID] {
			charge(c, b)
		}
		state[c.ID] = fmt.Sprintf("now %v fpu %v ialu %v extBusy %v dmaLast %v stats %+v",
			c.now, c.fpu, c.ialu, c.extBusy, c.dmaLast, c.Stats)
		c.Barrier()
	})
	return ch, state, long
}

// TestChargeBeamMatchesPerPixel: ChargeBeam leaves every core as the
// per-pixel calls do — its clock, pipe windows and off-chip channel
// account as float64 bits, every counter, the phases, the metrics, the
// progress cells and the trace spans — on local, remote, cross-chip and
// external buffers, on every set-up of beamSetups.
func TestChargeBeamMatchesPerPixel(t *testing.T) {
	for _, bs := range beamSetups {
		t.Run(bs.name, func(t *testing.T) {
			want, wantState, long := bs.beamChip(func(c *Core, b machine.Beam) { chargePixels(c, b) })
			got, gotState, _ := bs.beamChip(func(c *Core, b machine.Beam) { c.ChargeBeam(b) })
			for i := range wantState {
				if gotState[i] != wantState[i] {
					t.Errorf("core %d:\nbeam      %s\nper pixel %s", i, gotState[i], wantState[i])
				}
			}
			if g, w := fmt.Sprintf("%+v", got.Phases()), fmt.Sprintf("%+v", want.Phases()); g != w {
				t.Errorf("phases:\nbeam      %s\nper pixel %s", g, w)
			}
			if g, w := fmt.Sprintf("%+v", got.Metrics().Snapshot()), fmt.Sprintf("%+v", want.Metrics().Snapshot()); g != w {
				t.Errorf("metrics:\nbeam      %s\nper pixel %s", g, w)
			}
			gp, _ := got.Progress()
			wp, _ := want.Progress()
			if g, w := fmt.Sprint(gp), fmt.Sprint(wp); g != w {
				t.Errorf("progress: beam %s, per pixel %s", g, w)
			}
			spans := 0
			for i := range got.Cores {
				g, w := got.CoreTrack(i).Spans(), want.CoreTrack(i).Spans()
				spans += len(w)
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Errorf("core %d: %d spans from the beam calls differ from the %d per-pixel spans", i, len(g), len(w))
				}
			}
			// The beams must have stalled on remote and external reads,
			// drained the channel and held segments that the closed form
			// could add, and the traced chip must have derated, for the
			// comparison to cover those paths.
			s := want.TotalStats()
			if s.RemoteReads == 0 || s.ExtReads == 0 || s.ExtWrites == 0 || s.RemoteWrites == 0 ||
				s.LocalLoads == 0 || s.LocalStores == 0 || long == 0 || bs.watched && (spans == 0 || s.DerateCycles == 0) {
				t.Errorf("the beams missed a path: %d spans, %d segments of 3 or more pixels, stats %+v", spans, long, s)
			}
		})
	}
}

// TestChargeBeamPanicsAsLoad: a buffer outside every region, or past a
// core's local memory, panics at its first load with Load's message, and
// a beam that loads nothing from it does not classify it.
func TestChargeBeamPanicsAsLoad(t *testing.T) {
	ch := New(E16G3())
	good, _ := machine.NewBufC(ch.Cores[0].Bank(2), 8)
	pastLocal := good.Addr&^0xfffff + uint32(ch.P.LocalMemBytes)
	for _, addr := range []uint32{0x100, pastLocal} {
		bad := &machine.BufC{Addr: addr, Data: make([]complex64, 8)}
		b := machine.Beam{Src: [2]*machine.BufC{good, bad}, Dst: good,
			Runs: [2][][3]int32{{{0, 1, 0}}, {{0, 0, -1}, {1, 1, 2}}}}
		panicOf := func(charge func(*Core)) (msg any) {
			defer func() { msg = recover() }()
			charge(New(E16G3()).Cores[0])
			return nil
		}
		want := panicOf(func(c *Core) { chargePixels(c, b) })
		got := panicOf(func(c *Core) { c.ChargeBeam(b) })
		if want == nil || got != want {
			t.Errorf("%#x: ChargeBeam panicked with %v, the per-pixel calls with %v", addr, got, want)
		}
		b.Runs[1] = [][3]int32{{0, 1, -1}}
		if msg := panicOf(func(c *Core) { c.ChargeBeam(b) }); msg != nil {
			t.Errorf("%#x: a beam that loads nothing from the bad buffer panicked: %v", addr, msg)
		}
	}
}

// paperRuns returns one child's runs of a paper-scale merge beam: 1,001
// pixels in runs of 12 from offset base, every seventh run outside the
// child's grid.
func paperRuns(base int32) [][3]int32 {
	var runs [][3]int32
	for s := int32(0); s < 1001; s += 12 {
		o := base + s
		if len(runs)%7 == 6 {
			o = -1
		}
		runs = append(runs, [3]int32{s, min(s+11, 1000), o})
	}
	return runs
}

// BenchmarkChargeBeam prices one paper-scale beam per operation, storing
// to external memory. local, external and derated charge a merge beam of
// the kernels' three per-pixel batches: local reads the children from the
// core's two upper banks, as ParFFBP's first merge does, external from
// external memory, as its later merges do, and derated does too, on a
// core that a fault plan derates by 1.5, which adds every pixel. stage0
// charges one pulse's stage-0 row from external memory, as SeqFFBP does.
func BenchmarkChargeBeam(b *testing.B) {
	ch := New(E16G3())
	c := ch.Cores[0]
	slow := New(E16G3())
	slow.SetFaults(fault.MustCompile(fault.Plan{Derates: []fault.Derate{{Core: 0, Factor: 1.5}}}))
	ext, _ := machine.NewBufC(ch.Ext(), 3*1001)
	bankA, _ := machine.NewBufC(c.Bank(2), 1001)
	bankB, _ := machine.NewBufC(c.Bank(3), 1001)
	merge := [3]machine.Ops{{FMA: 13, Flop: 2, IOp: 4, Div: 2, Sqrt: 2, Trig: 2}, {FMA: 2, Flop: 2, IOp: 4}, {Flop: 2}}
	for _, bc := range []struct {
		name  string
		core  *Core
		pixel [3]machine.Ops
		src   [2]*machine.BufC
		runs  [2][][3]int32
	}{
		{"local", c, merge, [2]*machine.BufC{bankA, bankB}, [2][][3]int32{paperRuns(0), paperRuns(0)}},
		{"external", c, merge, [2]*machine.BufC{ext, ext}, [2][][3]int32{paperRuns(0), paperRuns(1001)}},
		{"derated", slow.Cores[0], merge, [2]*machine.BufC{ext, ext}, [2][][3]int32{paperRuns(0), paperRuns(1001)}},
		{"stage0", c, [3]machine.Ops{{IOp: 2}, {FMA: 5, Trig: 1}, {}}, [2]*machine.BufC{ext, ext},
			[2][][3]int32{{{0, 1000, 0}}, {{0, 1000, -1}}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			beam := machine.Beam{Pixel: bc.pixel, Src: bc.src, Runs: bc.runs, Dst: ext, Out: 2 * 1001}
			for range b.N {
				bc.core.ChargeBeam(beam)
			}
		})
	}
}
