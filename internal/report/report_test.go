package report

import (
	"context"
	"strings"
	"testing"

	"sarmany/internal/sar"
)

func TestSmallConfigValid(t *testing.T) {
	c := Small()
	if err := c.Params.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Params.NumPulses&(c.Params.NumPulses-1) != 0 {
		t.Error("pulse count not a power of two")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := Default()
	if c.Params.NumPulses != 1024 || c.Params.NumBins != 1001 {
		t.Errorf("default data set %dx%d, paper uses 1024x1001", c.Params.NumPulses, c.Params.NumBins)
	}
	if c.FFBPCores != 16 {
		t.Errorf("FFBP cores %d, paper uses 16", c.FFBPCores)
	}
	if got := c.Intel.SingleCorePowerWatts; got != 17.5 {
		t.Errorf("Intel single-core power %v, paper estimates 17.5", got)
	}
	if got := c.Epiphany.MaxPowerWatts; got != 2 {
		t.Errorf("Epiphany power %v, paper estimates 2", got)
	}
}

func TestDefaultBoxContainsSixTargets(t *testing.T) {
	p := sar.DefaultParams()
	box := DefaultBox(p)
	for i, tg := range sar.SixTargetScene(p) {
		if tg.U < box.UMin || tg.U > box.UMax || tg.Y < box.YMin || tg.Y > box.YMax {
			t.Errorf("target %d (%v, %v) outside box %+v", i, tg.U, tg.Y, box)
		}
	}
}

func TestTable1SmallShape(t *testing.T) {
	tab, err := RunTable1(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	// FFBP: sequential Epiphany slower than Intel; parallel faster.
	if s := tab.FFBP[1].Speedup; s >= 1 {
		t.Errorf("sequential Epiphany FFBP speedup %v, want < 1", s)
	}
	if s := tab.FFBP[2].Speedup; s < 1.5 {
		t.Errorf("parallel FFBP speedup %v, want > 1.5", s)
	}
	// Autofocus: sequential implementations comparable; pipeline much
	// faster than one Epiphany core.
	if s := tab.Autofocus[1].Speedup; s < 0.3 || s > 1.6 {
		t.Errorf("sequential Epiphany autofocus speedup %v outside [0.3, 1.6]", s)
	}
	pipe := tab.Autofocus[2].PixPerSec / tab.Autofocus[1].PixPerSec
	if pipe < 5 || pipe > 13 {
		t.Errorf("pipeline speedup over one core %v outside [5, 13]", pipe)
	}
	// Energy efficiency strongly favours the Epiphany.
	if tab.FFBPEnergyRatio < 5 || tab.AutofocusEnergyRatio < 5 {
		t.Errorf("energy ratios %v / %v too low", tab.FFBPEnergyRatio, tab.AutofocusEnergyRatio)
	}
}

func TestTable1Deterministic(t *testing.T) {
	a, err := RunTable1(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTable1(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.FFBP {
		if a.FFBP[i].Seconds != b.FFBP[i].Seconds {
			t.Errorf("FFBP row %d differs across runs", i)
		}
		if a.Autofocus[i].Seconds != b.Autofocus[i].Seconds {
			t.Errorf("autofocus row %d differs across runs", i)
		}
	}
}

// TestTable1PaperShape runs the full paper-scale configuration and checks
// the reproduction bands from DESIGN.md: who wins, by roughly what factor.
func TestTable1PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	cfg := Default()
	tab, ops := runTable1Ops(t, cfg)
	t.Logf("\n%s", tab)
	checkRowOps(t, cfg, ops)

	// FFBP sequential Epiphany: paper 0.36x, band [0.2, 0.7].
	if s := tab.FFBP[1].Speedup; s < 0.2 || s > 0.7 {
		t.Errorf("FFBP seq-Epiphany speedup %v outside [0.2, 0.7] (paper: 0.36)", s)
	}
	// FFBP parallel: paper 4.25x, band [2.5, 7].
	if s := tab.FFBP[2].Speedup; s < 2.5 || s > 7 {
		t.Errorf("FFBP parallel speedup %v outside [2.5, 7] (paper: 4.25)", s)
	}
	// FFBP parallel vs sequential Epiphany: paper 11.7x, band [8, 20].
	self := tab.FFBP[1].Seconds / tab.FFBP[2].Seconds
	if self < 8 || self > 20 {
		t.Errorf("FFBP self-speedup %v outside [8, 20] (paper: 11.7)", self)
	}
	// Autofocus sequential Epiphany: paper 0.8x, band [0.4, 1.6].
	if s := tab.Autofocus[1].Speedup; s < 0.4 || s > 1.6 {
		t.Errorf("autofocus seq-Epiphany speedup %v outside [0.4, 1.6] (paper: 0.8)", s)
	}
	// Autofocus parallel: paper 8.93x, band [5, 14].
	if s := tab.Autofocus[2].Speedup; s < 5 || s > 14 {
		t.Errorf("autofocus parallel speedup %v outside [5, 14] (paper: 8.93)", s)
	}
	// Pipeline speedup over one Epiphany core: paper 10.9x, band [7, 13].
	pipe := tab.Autofocus[2].PixPerSec / tab.Autofocus[1].PixPerSec
	if pipe < 7 || pipe > 13 {
		t.Errorf("autofocus self-speedup %v outside [7, 13] (paper: 10.9)", pipe)
	}
	// Energy-efficiency ratios: paper 38x and 78x, bands [25, 60]/[45, 110].
	if r := tab.FFBPEnergyRatio; r < 25 || r > 60 {
		t.Errorf("FFBP energy ratio %v outside [25, 60] (paper: 38)", r)
	}
	if r := tab.AutofocusEnergyRatio; r < 45 || r > 110 {
		t.Errorf("autofocus energy ratio %v outside [45, 110] (paper: 78)", r)
	}

	// Inside the bands, the exact values the paper reproduction records
	// (perfbench/golden.go): any moved bit is a model change.
	want := [6]float64{1.1995009277039943, 3.61038165, 0.251718128,
		0.002949350112354482, 0.003844545, 0.000409709}
	for i, r := range append(tab.FFBP[:], tab.Autofocus[:]...) {
		if r.Seconds != want[i] {
			t.Errorf("row %d (%s) modeled %v s, want %v", i, r.Impl, r.Seconds, want[i])
		}
	}
	if r := tab.FFBPEnergyRatio; r != 41.69597637167376 {
		t.Errorf("FFBP energy ratio %v, want 41.69597637167376", r)
	}
	if r := tab.AutofocusEnergyRatio; r != 62.98815374595558 {
		t.Errorf("autofocus energy ratio %v, want 62.98815374595558", r)
	}
}

func TestTable1String(t *testing.T) {
	tab, err := RunTable1(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	for _, want := range []string{"FFBP Implementations", "Autofocus Implementations",
		"Sequential on Intel i7", "Parallel on Epiphany", "Energy efficiency"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestAutofocusWorkloadSize(t *testing.T) {
	cfg := Small()
	pairs := AutofocusWorkload(cfg)
	if len(pairs) != cfg.Pairs {
		t.Errorf("workload has %d pairs, want %d", len(pairs), cfg.Pairs)
	}
	// Blocks must be non-trivial (non-zero content).
	var sum float64
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			sum += float64(real(pairs[0].Minus[r][c]))
		}
	}
	if sum == 0 {
		t.Error("workload blocks are empty")
	}
}
