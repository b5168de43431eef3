package energy

import (
	"math"
	"strings"
	"testing"
)

func TestJoulesAndThroughput(t *testing.T) {
	e := Estimate{Seconds: 2, Watts: 10, WorkUnits: 1000}
	if e.Joules() != 20 {
		t.Errorf("Joules = %v", e.Joules())
	}
	if e.Throughput() != 500 {
		t.Errorf("Throughput = %v", e.Throughput())
	}
	if e.PerWatt() != 50 {
		t.Errorf("PerWatt = %v", e.PerWatt())
	}
}

func TestZeroGuards(t *testing.T) {
	if (Estimate{}).Throughput() != 0 {
		t.Error("zero-time throughput")
	}
	if (Estimate{Seconds: 1}).PerWatt() != 0 {
		t.Error("zero-watt efficiency")
	}
	if EfficiencyRatio(Estimate{Seconds: 1, Watts: 1, WorkUnits: 1}, Estimate{}) != 0 {
		t.Error("ratio against zero baseline")
	}
}

func TestPaperStyleRatios(t *testing.T) {
	// Mimic the paper's autofocus numbers: Intel 21,600 px/s at 17.5 W,
	// Epiphany 192,857 px/s at 2 W -> 78x throughput/W.
	intel := Estimate{Seconds: 1, Watts: 17.5, WorkUnits: 21600}
	epi := Estimate{Seconds: 1, Watts: 2, WorkUnits: 192857}
	got := EfficiencyRatio(epi, intel)
	if math.Abs(got-78.1) > 0.5 {
		t.Errorf("efficiency ratio %v, want ~78", got)
	}
}

func TestStringFormat(t *testing.T) {
	s := Estimate{Seconds: 0.1, Watts: 2, WorkUnits: 100}.String()
	if !strings.Contains(s, "100.0 ms") || !strings.Contains(s, "2.0 W") {
		t.Errorf("String = %q", s)
	}
}
