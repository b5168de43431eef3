package refcpu

import (
	"fmt"
	"math"
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

// A beamSetup is a CPU that TestChargeBeamMatchesPerPixel charges beams
// on: traced or not, with its clock started at clock, and with I7M620's
// L1 or, where ways is set, an L1 of that many ways over 64 sets of
// 64-byte lines.
type beamSetup struct {
	name   string
	traced bool
	clock  float64
	ways   int
}

// beamSetups are traced, where ChargeBeam adds every pixel; untraced from
// clocks where some beams cross a power of two and the others take the
// closed form, and where from 2^51 on, whose binade steps half a cycle,
// the quarter-cycle addends tie; and untraced on an L1 of 3 ways, the
// fewest that hold a pixel's three lines, and of 2, which do not.
var beamSetups = []beamSetup{
	{"traced", true, 0, 0},
	{"untraced-0", false, 0, 0},
	{"untraced-2^20", false, 1 << 20, 0},
	{"untraced-2^24-3.7", false, 1<<24 - 3.7, 0},
	{"untraced-2^30-12345.6", false, 1<<30 - 12345.6, 0},
	{"untraced-2^52-1e6", false, 1<<52 - 1e6, 0},
	{"l1-3-way", false, 0, 3},
	{"l1-2-way", false, 0, 2},
}

// cpu charges 300 seeded beams to the set-up's CPU with charge. The beams
// draw up to 400 pixels of random batches over three 4 MB buffers, the
// third at an address 4 mod 8, so that some of its elements straddle two
// lines; each child's runs of up to 40 pixels have offsets that run up by
// one per pixel or are −1, and start at one of a few reused places or
// anywhere, so accesses are served at every level. Beam 1 is all −1 and
// beam 2 empty. cpu also returns how many beams crossed a power of two
// and how many stayed in their binade.
func (bs beamSetup) cpu(t *testing.T, charge func(*CPU, machine.Beam)) (cpu *CPU, tr *obs.Tracer, crossed, stayed int) {
	p := I7M620()
	if bs.ways > 0 {
		p.L1 = CacheParams{SizeBytes: bs.ways * 64 * 64, Ways: bs.ways, LineBytes: 64}
	}
	cpu = New(p)
	if bs.traced {
		tr = obs.NewTracer(cpu.P.Clock)
		cpu.SetTracer(tr)
	}
	cpu.cycles = bs.clock
	var bufs [3]*machine.BufC
	for i := range bufs {
		var err error
		if bufs[i], err = machine.NewBufC(cpu.Mem(), 1<<19+1); err != nil {
			t.Fatal(err)
		}
	}
	bufs[2].Addr += 4
	rng := rand.New(rand.NewSource(1))
	place := func(n int) int {
		if rng.Intn(2) == 0 {
			return rng.Intn(8) << 12
		}
		return rng.Intn(1<<19 - n)
	}
	binade := func(x float64) uint64 { return math.Float64bits(x) >> 52 }
	for j := range 300 {
		b := machine.Beam{Dst: bufs[rng.Intn(3)]}
		for k := range b.Pixel {
			b.Pixel[k] = machine.Ops{FMA: rng.Intn(16), Flop: rng.Intn(4), IOp: rng.Intn(24),
				Div: rng.Intn(2), Sqrt: rng.Intn(2), Trig: rng.Intn(2)}
		}
		n := 1 + rng.Intn(400)
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
				run := min(n-i, 1+rng.Intn(40))
				b.Runs[k] = append(b.Runs[k], [3]int32{int32(i), int32(i + run - 1), off})
				i += run
			}
		}
		before := cpu.cycles
		charge(cpu, b)
		if before > 0 && binade(before) == binade(cpu.cycles) {
			stayed++
		} else {
			crossed++
		}
	}
	return cpu, tr, crossed, stayed
}

// TestChargeBeamMatchesPerPixel: ChargeBeam leaves the CPU as the
// per-pixel calls do — its cycles as float64 bits, every counter, the
// metrics, the whole cache hierarchy and the trace spans — on every
// set-up of beamSetups.
func TestChargeBeamMatchesPerPixel(t *testing.T) {
	for _, bs := range beamSetups {
		t.Run(bs.name, func(t *testing.T) {
			want, wantTr, crossed, stayed := bs.cpu(t, func(c *CPU, b machine.Beam) { chargePixels(c, b) })
			got, gotTr, _, _ := bs.cpu(t, func(c *CPU, b machine.Beam) { c.ChargeBeam(b) })
			if g, w := math.Float64bits(got.Cycles()), math.Float64bits(want.Cycles()); g != w {
				t.Errorf("cycles: beam %v (%#x), per pixel %v (%#x)", got.Cycles(), g, want.Cycles(), w)
			}
			if g, w := fmt.Sprintf("%+v", got.Stats), fmt.Sprintf("%+v", want.Stats); g != w {
				t.Errorf("stats:\nbeam      %s\nper pixel %s", g, w)
			}
			if g, w := fmt.Sprintf("%+v", got.Metrics().Snapshot()), fmt.Sprintf("%+v", want.Metrics().Snapshot()); g != w {
				t.Errorf("metrics:\nbeam      %s\nper pixel %s", g, w)
			}
			if !reflect.DeepEqual(got.hier, want.hier) {
				h := func(c *CPU) string {
					return fmt.Sprintf("L1 %d/%d L2 %d/%d L3 %d/%d", c.hier.L1.Hits, c.hier.L1.Misses,
						c.hier.L2.Hits, c.hier.L2.Misses, c.hier.L3.Hits, c.hier.L3.Misses)
				}
				t.Errorf("the cache contents differ; hits/misses:\nbeam      %s\nper pixel %s", h(got), h(want))
			}
			if bs.traced {
				g, w := gotTr.Tracks()[0].Spans(), wantTr.Tracks()[0].Spans()
				if len(w) == 0 || fmt.Sprint(g) != fmt.Sprint(w) {
					t.Errorf("%d spans from the beam calls differ from the %d per-pixel spans", len(g), len(w))
				}
			}
			for lvl, k := range want.Stats.Served {
				if k == 0 {
					t.Errorf("no access served at %v", Level(lvl))
				}
			}
			// Untraced, both of ChargeBeam's paths must run.
			if !bs.traced && (crossed == 0 || stayed == 0) {
				t.Errorf("%d beams crossed a power of two and %d stayed in their binade; want some of each", crossed, stayed)
			}
		})
	}
}

// BenchmarkChargeBeam prices one paper-scale beam per operation. merge
// and traced charge a merge beam: 1,001 pixels with the kernels' three
// per-pixel batches, each child's runs 12 pixels long with every seventh
// outside its grid. Successive beams read successive pairs of child rows
// of one 1024 x 1001 stage buffer and store successive rows of another,
// as SeqFFBP's merges do, so the cache serves them as it serves a merge.
// traced attaches a tracer, which makes every pixel's additions. stage0
// charges one pulse's stage-0 row, reading successive rows of the data
// buffer, as SeqFFBP does.
func BenchmarkChargeBeam(b *testing.B) {
	const nb, rows = 1001, 1024
	var runs [][3]int32
	for s := int32(0); s < nb; s += 12 {
		o := s
		if len(runs)%7 == 6 {
			o = -1
		}
		runs = append(runs, [3]int32{s, min(s+11, nb-1), o})
	}
	merge := [3]machine.Ops{{FMA: 13, Flop: 2, IOp: 4, Div: 2, Sqrt: 2, Trig: 2}, {FMA: 2, Flop: 2, IOp: 4}, {Flop: 2}}
	for _, bc := range []struct {
		name   string
		traced bool
		pixel  [3]machine.Ops
		runs   [2][][3]int32
		bases  func(i int) [2]int
	}{
		{"merge", false, merge, [2][][3]int32{runs, runs},
			func(i int) [2]int { row := i % (rows / 2); return [2]int{2 * row * nb, (2*row + 1) * nb} }},
		{"traced", true, merge, [2][][3]int32{runs, runs},
			func(i int) [2]int { row := i % (rows / 2); return [2]int{2 * row * nb, (2*row + 1) * nb} }},
		{"stage0", false, [3]machine.Ops{{IOp: 2}, {FMA: 5, Trig: 1}, {}}, [2][][3]int32{{{0, nb - 1, 0}}, {{0, nb - 1, -1}}},
			func(i int) [2]int { row := i % rows; return [2]int{row * nb, row * nb} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cpu := New(I7M620())
			if bc.traced {
				cpu.SetTracer(obs.NewTracer(cpu.P.Clock))
			}
			src, _ := machine.NewBufC(cpu.Mem(), rows*nb)
			dst, _ := machine.NewBufC(cpu.Mem(), rows*nb)
			beam := machine.Beam{Pixel: bc.pixel, Src: [2]*machine.BufC{src, src}, Runs: bc.runs, Dst: dst}
			for i := range b.N {
				beam.Base = bc.bases(i)
				beam.Out = (i % rows) * nb
				cpu.ChargeBeam(beam)
			}
		})
	}
}
