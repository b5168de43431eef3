package geom

import (
	"math"
	"math/rand"
	"testing"
)

// nearestOracle returns beam bt's bins as ChildIndices, math.Round and the
// bounds test give them, two per bin (minus, then plus): the arithmetic
// NearestRuns' runs must reproduce.
func nearestOracle(pg PolarGrid, bt int, l float64, minus, plus PolarGrid, stride0, stride1 int) []int32 {
	idx := make([]float64, 4*pg.NR)
	ChildIndices(idx, pg, bt, l, minus, plus, 0, 0)
	bins := make([]int32, 2*pg.NR)
	for i := range bins {
		g, stride := minus, stride0
		if i%2 == 1 {
			g, stride = plus, stride1
		}
		t, r := int(math.Round(idx[2*i])), int(math.Round(idx[2*i+1]))
		bins[i] = -1
		if uint(t) < uint(g.NTheta) && uint(r) < uint(g.NR) {
			bins[i] = int32(t*stride + r)
		}
	}
	return bins
}

// runBins expands the runs NearestRuns finds for beam bt into the
// oracle's form, one sample per bin and child, and returns it with the
// number of runs. It fails unless each child's runs cover the bins
// 0..pg.NR-1 in order.
func runBins(t *testing.T, pg PolarGrid, bt int, l float64, minus, plus PolarGrid, stride0, stride1 int) ([]int32, int) {
	t.Helper()
	bins := make([]int32, 2*pg.NR)
	m, p := NearestRuns(nil, nil, pg, bt, l, minus, plus, stride0, stride1)
	for c, runs := range [2][][3]int32{m, p} {
		next := int32(0)
		for _, r := range runs {
			if r[0] != next || r[1] < r[0] || int(r[1]) >= pg.NR {
				t.Fatalf("beam %d child %d: run %v does not start at bin %d inside the %d bins", bt, c, r, next, pg.NR)
			}
			for b, o := r[0], r[2]; b <= r[1]; b++ {
				bins[2*b+int32(c)] = o
				if o >= 0 {
					o++
				}
			}
			next = r[1] + 1
		}
		if int(next) != pg.NR {
			t.Fatalf("beam %d child %d: the runs end at bin %d of %d", bt, c, next, pg.NR)
		}
	}
	return bins, len(m) + len(p)
}

// checkNearest compares NearestRuns' runs with the oracle on one beam,
// bin by bin, and returns the number of differing bins, of out-of-range
// samples and of runs.
func checkNearest(t *testing.T, pg PolarGrid, bt int, l float64, minus, plus PolarGrid, stride0, stride1 int) (bad, out, runs int) {
	t.Helper()
	want := nearestOracle(pg, bt, l, minus, plus, stride0, stride1)
	got, runs := runBins(t, pg, bt, l, minus, plus, stride0, stride1)
	for i, w := range want {
		if got[i] != w {
			if bad == 0 {
				t.Errorf("beam %d (l %v) bin %d child %d: got %d, want %d; parent %+v minus %+v plus %+v",
					bt, l, i/2, i%2, got[i], w, pg, minus, plus)
			}
			bad++
		}
		if w < 0 {
			out++
		}
	}
	return bad, out, runs
}

// paperBeams calls fn for every merge beam of the paper-scale
// factorization: report.Default's geometry, 1024 pulses spaced 1 m and
// 1001 range bins from 2000 m spaced 0.5 m, with the central scene box.
func paperBeams(fn func(pg PolarGrid, bt int, l float64, minus, plus PolarGrid)) {
	const np, nr, r0, dr = 1024, 1001, 2000.0, 0.5
	box := SceneBox{UMin: -0.15 * np, UMax: 0.15 * np, YMin: r0 + 100, YMax: r0 + 400, ThetaPad: 0.05}
	kids := Stage0(np, -np/2, 1)
	for ntheta := 1; len(kids) > 1; ntheta *= 2 {
		parents := MergeStage(kids)
		for j, a := range parents {
			pg := box.GridFor(a, 2*ntheta, nr, r0, dr)
			g0 := box.GridFor(kids[2*j], ntheta, nr, r0, dr)
			g1 := box.GridFor(kids[2*j+1], ntheta, nr, r0, dr)
			for bt := 0; bt < pg.NTheta; bt++ {
				fn(pg, bt, kids[2*j].Length, g0, g1)
			}
		}
		kids = parents
	}
}

// TestNearestBinsPaperScale checks every paper-scale merge pixel against
// the oracle, the count of out-of-range samples against the closed form
// the Table I op counts rest on, and the count of runs, which the run
// gather's and the beam calls' cost rests on.
func TestNearestBinsPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper scale: 10,250,240 merge pixels")
	}
	var bad, out, runs int
	paperBeams(func(pg PolarGrid, bt int, l float64, minus, plus PolarGrid) {
		b, o, r := checkNearest(t, pg, bt, l, minus, plus, minus.NR, plus.NR)
		bad, out, runs = bad+b, out+o, runs+r
	})
	if bad != 0 {
		t.Errorf("%d bins differ from ChildIndices + Round", bad)
	}
	if want := 20500480 - 20189502; out != want {
		t.Errorf("%d child samples out of range, want %d", out, want)
	}
	if runs != 258668 {
		t.Errorf("%d runs, want 258668", runs)
	}
}

// BenchmarkNearestRunsPaperScale times one pass of NearestRuns over every
// paper-scale merge beam (10,240 beams of 1001 pixels) per operation.
func BenchmarkNearestRunsPaperScale(b *testing.B) {
	var minusRuns, plusRuns [][3]int32
	b.ResetTimer()
	for range b.N {
		paperBeams(func(pg PolarGrid, bt int, l float64, minus, plus PolarGrid) {
			minusRuns, plusRuns = NearestRuns(minusRuns[:0], plusRuns[:0], pg, bt, l, minus, plus, minus.NR, plus.NR)
		})
	}
}

// TestNearestBinsRandomGrids checks seeded random beams against the
// oracle: zero-length children, row strides wider than the grid, children
// lying wholly outside the beam's angles or ranges, and beams that take
// the exact path: grids with edges outside [0, pi], children whose DR
// differs from the parent's, some built to turn the range index minus the
// parent bin inside a long run, and parent ranges below the child
// half-length.
func TestNearestBinsRandomGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	randGrid := func(nr int, r0, dr float64) PolarGrid {
		lo := 0.1 + 1.2*rng.Float64()
		return NewPolarGrid(nr, r0, dr, 1+rng.Intn(64), lo, lo+0.05+1.4*rng.Float64())
	}
	var bad int
	for i := 0; i < 3000; i++ {
		nr := 1 + rng.Intn(300)
		r0, dr := 50+5000*rng.Float64(), 0.05+2*rng.Float64()
		pg := randGrid(nr, r0, dr)
		minus, plus := randGrid(nr, r0, dr), randGrid(nr, r0, dr)
		l := 200 * rng.Float64()
		switch i % 6 {
		case 1:
			l = 0
		case 2: // the minus child's angles lie below the grid
			minus = NewPolarGrid(nr, r0, dr, 8, 2.9, 3.1)
		case 3: // the plus child's ranges lie beyond the grid
			plus.R0 = pg.Range(nr-1) + l + 10
		case 4: // edges below 0 and above pi
			minus = NewPolarGrid(nr, r0, dr, 16, -0.3, 1.2)
			plus = NewPolarGrid(nr, r0, dr, 16, 1.9, math.Pi+0.2)
		}
		stride0, stride1 := minus.NR+rng.Intn(3), plus.NR+rng.Intn(3)
		b, _, _ := checkNearest(t, pg, rng.Intn(pg.NTheta), l, minus, plus, stride0, stride1)
		bad += b
	}
	// Beams that take the exact arithmetic. Even i: children whose DR is
	// below the parent's, where the range index minus the parent bin
	// falls and then rises near the child half-length. Odd i: parent
	// ranges that start below the child half-length, where the range
	// index itself falls and then rises, over child grids short enough
	// for it to leave and re-enter them. The children cover nearly
	// [0, pi] with a few wide beams and ranges from near zero, so their
	// bins hold long runs, and a run finder that skipped either
	// precondition would write wrong bins here.
	for i := 0; i < 2000; i++ {
		nr := 2 + rng.Intn(300)
		l := 20 + 200*rng.Float64()
		r0, dr := l/2*(1+0.5*rng.Float64()), 0.05+2*rng.Float64()
		if i%2 == 1 {
			r0 = l / 2 * rng.Float64()
		}
		lo := 0.05 + 1.2*rng.Float64()
		pg := NewPolarGrid(nr, r0, dr, 1+rng.Intn(16), lo, lo+0.05+0.2*rng.Float64())
		child := func() PolarGrid {
			g := NewPolarGrid(nr+rng.Intn(300), 0.15*l*rng.Float64(), dr, 1+rng.Intn(4), 0.02, 3.1)
			if i%2 == 0 {
				g.DR = dr / (1 + 0.5*rng.Float64())
			} else {
				g.NR = 1 + rng.Intn(int(l/2/dr)+1)
			}
			return g
		}
		minus, plus := child(), child()
		b, _, _ := checkNearest(t, pg, rng.Intn(pg.NTheta), l, minus, plus, minus.NR, plus.NR)
		bad += b
	}
	// Beams built to put the turn of the range index minus the parent bin
	// inside a long run. With the plus child's DR ρ times the parent's,
	// the difference turns where the plus range grows ρ times as fast as
	// the parent range: at r* = h cos θ + ρ h sin θ / sqrt(1 - ρ²). The
	// plus child's R0 puts the difference there ε below a rounding edge,
	// so a dip of bins one lower sits between two runs one higher. ρ near
	// one and long children flatten the turn, which widens the dip to tens
	// of bins. Both children take the exact path.
	for i := 0; i < 600; i++ {
		h := 50 + 100*rng.Float64()
		dr, rho := 0.2+1.8*rng.Float64(), 0.95+0.04*rng.Float64()
		nr, lo := 200+rng.Intn(200), 0.5+1.1*rng.Float64()
		th := NewPolarGrid(1, 0, dr, 1, lo, lo+0.02).Theta(0)
		rStar := h*math.Cos(th) + rho*h*math.Sin(th)/math.Sqrt(1-rho*rho)
		pg := NewPolarGrid(nr, max(rStar-dr*float64(nr)*(0.3+0.4*rng.Float64()), 1.01*h), dr, 1, lo, lo+0.02)
		plusRange := func(r float64) float64 { return math.Hypot(r*math.Cos(th)-h, r*math.Sin(th)) }
		cdr := rho * dr
		r0 := plusRange(pg.R0) - cdr*float64(1+rng.Intn(20))
		dip := (plusRange(rStar)-r0)/cdr - pg.RangeIndex(rStar)
		r0 += cdr * (dip - math.Floor(dip) - 0.48 + 0.45*rng.Float64())
		nrc := int((plusRange(pg.Range(nr-1))-r0)/cdr) + 2
		plus := NewPolarGrid(nrc, r0, cdr, 1+rng.Intn(4), 0.02, 3.1)
		minus := NewPolarGrid(int((pg.Range(nr-1)+h)/cdr)+2, 0, cdr, 1+rng.Intn(4), 0.02, 3.1)
		b, _, _ := checkNearest(t, pg, 0, 2*h, minus, plus, minus.NR, plus.NR)
		bad += b
	}
	if bad != 0 {
		t.Errorf("%d bins differ from ChildIndices + Round", bad)
	}
}

// TestNearestBinsNearTies builds child grids whose rounding edge passes
// through a chosen pixel's exact Atan2 or Hypot value, index k - 0.5 for
// k = 0 (Round gives -1, outside the grid), NTheta or NR, and a random
// edge in between. Only the margins decide these pixels: a walk that
// trusted the sign of a cross product or the fraction of the square-root
// range this close to an edge would disagree with the exact rounding.
func TestNearestBinsNearTies(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var bad int
	for i := 0; i < 20000; i++ {
		nr := 2 + rng.Intn(200)
		r0, dr := 500+3000*rng.Float64(), 0.05+2*rng.Float64()
		lo := 0.3 + rng.Float64()
		pg := NewPolarGrid(nr, r0, dr, 1+rng.Intn(64), lo, lo+0.05+0.8*rng.Float64())
		bt, bi := rng.Intn(pg.NTheta), 1+rng.Intn(nr-1)
		l := 0.5 + 300*rng.Float64()
		h := l / 2
		// The chosen pixel, computed as ChildIndices computes it.
		theta := pg.Theta(bt)
		r := pg.Range(bi)
		x, y := r*math.Cos(theta), r*math.Sin(theta)
		xc := x + h
		if i%2 == 1 {
			xc = x - h
		}
		th, rc := math.Atan2(y, xc), math.Hypot(xc, y)

		// A grid with the tie on the beam (even i/2) or on the range.
		ntheta := 1 + rng.Intn(64)
		tie := func(n int) float64 {
			switch rng.Intn(3) {
			case 0:
				return -0.5
			case 1:
				return float64(n) - 0.5
			}
			return float64(rng.Intn(n)) + 0.5
		}
		kt, kr := float64(ntheta/2)+0.25, float64(nr/2)+0.25
		if (i/2)%2 == 0 {
			kt = tie(ntheta)
		} else {
			kr = tie(nr)
		}
		dth := min(th/(kt+1), (math.Pi-th)/(float64(ntheta)-kt+1)) * (0.05 + 0.9*rng.Float64())
		g := PolarGrid{NR: nr, R0: rc - kr*dr, DR: dr, NTheta: ntheta, Theta0: th - kt*dth, DTheta: dth}
		if v := g.ThetaIndex(th); math.Abs(v-kt) > 1e-9 {
			t.Fatalf("trial %d: beam index %v, built for %v", i, v, kt)
		}
		if v := g.RangeIndex(rc); math.Abs(v-kr) > 1e-9 {
			t.Fatalf("trial %d: range index %v, built for %v", i, v, kr)
		}
		other := NewPolarGrid(nr, r0, dr, 1+rng.Intn(64), lo, lo+0.05+0.8*rng.Float64())
		minus, plus := g, other
		if i%2 == 1 {
			minus, plus = other, g
		}
		b, _, _ := checkNearest(t, pg, bt, l, minus, plus, nr, nr)
		bad += b
	}
	if bad != 0 {
		t.Errorf("%d bins differ from ChildIndices + Round", bad)
	}
}
