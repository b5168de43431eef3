package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestChildCoordsBroadside(t *testing.T) {
	// A broadside point (theta = pi/2) is symmetric between the children:
	// r1 == r2 and theta1 + theta2 == pi.
	r1, th1, r2, th2 := ChildCoords(1000, math.Pi/2, 10)
	if math.Abs(r1-r2) > 1e-9 {
		t.Errorf("broadside ranges differ: %v %v", r1, r2)
	}
	if math.Abs(th1+th2-math.Pi) > 1e-12 {
		t.Errorf("broadside angles not symmetric: %v %v", th1, th2)
	}
	want := math.Hypot(1000, 5)
	if math.Abs(r1-want) > 1e-9 {
		t.Errorf("r1 = %v, want %v", r1, want)
	}
}

func TestChildCoordsZeroLength(t *testing.T) {
	// With l = 0 the children coincide with the parent.
	r1, th1, r2, th2 := ChildCoords(500, 1.2, 0)
	if math.Abs(r1-500) > 1e-9 || math.Abs(r2-500) > 1e-9 {
		t.Errorf("ranges %v %v, want 500", r1, r2)
	}
	if math.Abs(th1-1.2) > 1e-12 || math.Abs(th2-1.2) > 1e-12 {
		t.Errorf("angles %v %v, want 1.2", th1, th2)
	}
}

// childCoordsCosine is the literal cosine-theorem formulation of paper
// eqs. 1-4, the published form ChildCoords is validated against.
func childCoordsCosine(r, theta, l float64) (r1, theta1, r2, theta2 float64) {
	h := l / 2
	r1 = math.Sqrt(r*r + h*h - 2*r*h*math.Cos(math.Pi-theta))
	r2 = math.Sqrt(r*r + h*h - 2*r*h*math.Cos(theta))
	theta1 = math.Acos(clamp1((r1*r1 + h*h - r*r) / (r1 * l)))
	theta2 = math.Pi - math.Acos(clamp1((r2*r2+h*h-r*r)/(r2*l)))
	return r1, theta1, r2, theta2
}

func clamp1(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

func TestChildCoordsMatchesCosineForm(t *testing.T) {
	// The Cartesian and the published cosine-theorem forms must agree over
	// the whole operating region (far field, theta well inside (0, pi)).
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		r := 100 + 10000*rng.Float64()
		theta := 0.1 + (math.Pi-0.2)*rng.Float64()
		l := 0.1 + 100*rng.Float64()
		r1a, t1a, r2a, t2a := ChildCoords(r, theta, l)
		r1b, t1b, r2b, t2b := childCoordsCosine(r, theta, l)
		if math.Abs(r1a-r1b) > 1e-6*r || math.Abs(r2a-r2b) > 1e-6*r {
			t.Fatalf("range mismatch at r=%v theta=%v l=%v: (%v,%v) vs (%v,%v)", r, theta, l, r1a, r2a, r1b, r2b)
		}
		if math.Abs(t1a-t1b) > 1e-6 || math.Abs(t2a-t2b) > 1e-6 {
			t.Fatalf("angle mismatch at r=%v theta=%v l=%v: (%v,%v) vs (%v,%v)", r, theta, l, t1a, t2a, t1b, t2b)
		}
	}
}

func TestChildCoordsExactPointRecovery(t *testing.T) {
	// The distance from each child centre to the physical point must match
	// direct geometry: child centres at -/+ l/2 on the track (x axis).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		r := 50 + 5000*rng.Float64()
		theta := 0.05 + (math.Pi-0.1)*rng.Float64()
		l := 50 * rng.Float64()
		x, y := r*math.Cos(theta), r*math.Sin(theta)
		r1, th1, r2, th2 := ChildCoords(r, theta, l)
		// Reconstruct the point from each child's polar coordinates.
		x1 := -l/2 + r1*math.Cos(th1)
		y1 := r1 * math.Sin(th1)
		x2 := l/2 + r2*math.Cos(th2)
		y2 := r2 * math.Sin(th2)
		if math.Hypot(x1-x, y1-y) > 1e-8*r || math.Hypot(x2-x, y2-y) > 1e-8*r {
			t.Fatalf("point not recovered: (%v,%v) vs (%v,%v) and (%v,%v)", x, y, x1, y1, x2, y2)
		}
	}
}

// TestChildIndicesMatchesChildCoords pins ChildIndices bit for bit
// against the per-pixel form it hoists — ChildCoords, then ThetaIndex and
// RangeIndex on each child grid, the plus child displaced by the
// compensation — over seeded random beams, grids, lengths and
// compensations, the zero compensation included.
func TestChildIndicesMatchesChildCoords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randGrid := func(nr int, r0, dr float64) PolarGrid {
		lo := 0.1 + 1.2*rng.Float64()
		return NewPolarGrid(nr, r0, dr, 1+rng.Intn(64), lo, lo+0.05+1.4*rng.Float64())
	}
	var idx []float64
	for i := 0; i < 500; i++ {
		nr := 1 + rng.Intn(300)
		r0, dr := 50+5000*rng.Float64(), 0.05+2*rng.Float64()
		pg := randGrid(nr, r0, dr)
		minus, plus := randGrid(nr, r0, dr), randGrid(nr, r0, dr)
		l := 200 * rng.Float64()
		var dBeam, dRange float64
		if i%2 == 1 {
			dBeam, dRange = 4*rng.Float64()-2, 4*rng.Float64()-2
		}
		bt := rng.Intn(pg.NTheta)
		if cap(idx) < 4*nr {
			idx = make([]float64, 4*nr)
		}
		ChildIndices(idx, pg, bt, l, minus, plus, dBeam, dRange)
		theta := pg.Theta(bt)
		for bi := 0; bi < nr; bi++ {
			r1, th1, r2, th2 := ChildCoords(pg.Range(bi), theta, l)
			want := [4]float64{
				minus.ThetaIndex(th1), minus.RangeIndex(r1),
				plus.ThetaIndex(th2) + dBeam, plus.RangeIndex(r2) + dRange,
			}
			for k, w := range want {
				if got := idx[4*bi+k]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("case %d bin %d index %d: got %v, want %v (bits %x vs %x)",
						i, bi, k, got, w, math.Float64bits(got), math.Float64bits(w))
				}
			}
		}
	}
}

func TestPolarGridMapping(t *testing.T) {
	g := NewPolarGrid(1001, 1000, 1, 4, 0, math.Pi)
	if g.NR != 1001 || g.NTheta != 4 {
		t.Fatalf("grid dims %d %d", g.NR, g.NTheta)
	}
	if math.Abs(g.Range(0)-1000) > 1e-12 || math.Abs(g.Range(1000)-2000) > 1e-12 {
		t.Errorf("range mapping wrong: %v %v", g.Range(0), g.Range(1000))
	}
	// Bin centres of 4 bins over [0, pi]: pi/8, 3pi/8, 5pi/8, 7pi/8.
	for k := 0; k < 4; k++ {
		want := (2*float64(k) + 1) * math.Pi / 8
		if math.Abs(g.Theta(k)-want) > 1e-12 {
			t.Errorf("Theta(%d) = %v, want %v", k, g.Theta(k), want)
		}
	}
	// Index functions invert the coordinate functions.
	if math.Abs(g.RangeIndex(g.Range(500))-500) > 1e-9 {
		t.Error("RangeIndex does not invert Range")
	}
	if math.Abs(g.ThetaIndex(g.Theta(2))-2) > 1e-9 {
		t.Error("ThetaIndex does not invert Theta")
	}
}

func TestStage0AndMerge(t *testing.T) {
	aps := Stage0(8, 0, 2) // 8 pulses spaced 2 m starting at track position 0
	if len(aps) != 8 {
		t.Fatalf("stage0 count %d", len(aps))
	}
	if aps[0].Center != 1 || aps[7].Center != 15 {
		t.Errorf("stage0 centres %v %v", aps[0].Center, aps[7].Center)
	}
	stage := aps
	for len(stage) > 1 {
		next := MergeStage(stage)
		if len(next) != len(stage)/2 {
			t.Fatalf("merge count %d from %d", len(next), len(stage))
		}
		for j, p := range next {
			m, q := stage[2*j], stage[2*j+1]
			if math.Abs(p.Center-(m.Center+q.Center)/2) > 1e-12 {
				t.Fatalf("parent centre %v from %v %v", p.Center, m.Center, q.Center)
			}
			if math.Abs(p.Length-(m.Length+q.Length)) > 1e-12 {
				t.Fatalf("parent length %v", p.Length)
			}
			// The inputs are the parent's minus and plus children, centred
			// a quarter of its length either side of its centre.
			if math.Abs(p.Center-p.Length/4-m.Center) > 1e-12 || math.Abs(p.Center+p.Length/4-q.Center) > 1e-12 {
				t.Fatalf("parent %+v is not centred between its children %+v %+v", p, m, q)
			}
		}
		stage = next
	}
	if stage[0].Length != 16 || stage[0].Center != 8 {
		t.Errorf("full aperture %+v", stage[0])
	}
}

func TestMergeStageOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MergeStage(make([]Aperture, 3))
}
