package geom

import (
	"math"
	"math/rand"
	"testing"
)

// nearestOracle returns beam bt's bins as ChildIndices, math.Round and the
// bounds test give them: the arithmetic NearestBins must reproduce.
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

// checkNearest compares NearestBins with the oracle on one beam and
// returns the number of differing bins and of out-of-range samples.
func checkNearest(t *testing.T, pg PolarGrid, bt int, l float64, minus, plus PolarGrid, stride0, stride1 int) (bad, out int) {
	t.Helper()
	want := nearestOracle(pg, bt, l, minus, plus, stride0, stride1)
	got := make([]int32, len(want))
	NearestBins(got, pg, bt, l, minus, plus, stride0, stride1)
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
	return bad, out
}

// TestNearestBinsPaperScale checks every merge pixel of the paper-scale
// factorization (report.Default's geometry: 1024 pulses spaced 1 m, 1001
// range bins from 2000 m spaced 0.5 m, the central scene box) against
// the oracle, and the count of out-of-range samples against the closed
// form the Table I op counts rest on.
func TestNearestBinsPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper scale: 10,250,240 merge pixels")
	}
	const np, nr, r0, dr = 1024, 1001, 2000.0, 0.5
	box := SceneBox{UMin: -0.15 * np, UMax: 0.15 * np, YMin: r0 + 100, YMax: r0 + 400, ThetaPad: 0.05}
	var bad, out int
	kids := Stage0(np, -np/2, 1)
	for ntheta := 1; len(kids) > 1; ntheta *= 2 {
		parents := MergeStage(kids)
		for j, a := range parents {
			pg := box.GridFor(a, 2*ntheta, nr, r0, dr)
			g0 := box.GridFor(kids[2*j], ntheta, nr, r0, dr)
			g1 := box.GridFor(kids[2*j+1], ntheta, nr, r0, dr)
			for bt := 0; bt < pg.NTheta; bt++ {
				b, o := checkNearest(t, pg, bt, kids[2*j].Length, g0, g1, nr, nr)
				bad, out = bad+b, out+o
			}
		}
		kids = parents
	}
	if bad != 0 {
		t.Errorf("%d bins differ from ChildIndices + Round", bad)
	}
	if want := 20500480 - 20189502; out != want {
		t.Errorf("%d child samples out of range, want %d", out, want)
	}
}

// TestNearestBinsRandomGrids checks seeded random beams against the
// oracle: zero-length children, row strides wider than the grid, children
// lying wholly outside the beam's angles or ranges, and grids with edges
// outside [0, pi], which take the exact path.
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
		b, _ := checkNearest(t, pg, rng.Intn(pg.NTheta), l, minus, plus, stride0, stride1)
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
		b, _ := checkNearest(t, pg, bt, l, minus, plus, nr, nr)
		bad += b
	}
	if bad != 0 {
		t.Errorf("%d bins differ from ChildIndices + Round", bad)
	}
}
