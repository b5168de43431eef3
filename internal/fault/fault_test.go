package fault

import (
	"math"
	"strings"
	"testing"
)

func TestEmptyPlanIsIdentity(t *testing.T) {
	var p Plan
	if !p.Empty() {
		t.Fatal("zero plan should be empty")
	}
	inj, err := p.Compile()
	if err != nil {
		t.Fatalf("compiling the empty plan: %v", err)
	}
	if !inj.Empty() {
		t.Fatal("compiled empty plan should stay empty")
	}
	if inj.Halted(0) || len(inj.HaltedCores()) != 0 {
		t.Error("empty plan halts a core")
	}
	if inj.ChipHalted(0) || inj.ChipSlowdown(0) != 1 {
		t.Error("empty plan halts or derates a chip")
	}
	if s := inj.Slowdown(3); s != 1 {
		t.Errorf("Slowdown = %v, want the identity 1", s)
	}
	if s := inj.ExtScale(); s != 1 {
		t.Errorf("ExtScale = %v, want the identity 1", s)
	}
	if _, ok := inj.LinkFaultFor(0, 1); ok {
		t.Error("empty plan configures a link fault")
	}
	if n := inj.LinkRetries(0, 1, 7); n != 0 {
		t.Errorf("LinkRetries = %d, want 0", n)
	}
	if n := inj.DMARetries(2, 7); n != 0 {
		t.Errorf("DMARetries = %d, want 0", n)
	}
	// ExtScale 1 spelled out explicitly is still the empty plan.
	p1 := Plan{ExtScale: 1}
	if !p1.Empty() {
		t.Error("plan with ExtScale=1 should be empty")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string // substring of the error; "" means valid
	}{
		{"zero", Plan{}, ""},
		{"full", Plan{
			Seed:     42,
			Halts:    []int{5},
			Derates:  []Derate{{Core: 3, Factor: 1.5}},
			ExtScale: 0.5,
			Links:    []LinkFault{{From: 0, To: 1, Rate: 0.1}},
			DMAs:     []DMAFault{{Core: -1, Rate: 0.02}},
		}, ""},
		{"negative halt", Plan{Halts: []int{-2}}, "negative core"},
		{"dup halt", Plan{Halts: []int{1, 1}}, "halted twice"},
		{"derate below one", Plan{Derates: []Derate{{Core: 0, Factor: 0.5}}}, "not a finite value >= 1"},
		{"derate NaN", Plan{Derates: []Derate{{Core: 0, Factor: math.NaN()}}}, "not a finite value >= 1"},
		{"derate Inf", Plan{Derates: []Derate{{Core: 0, Factor: math.Inf(1)}}}, "not a finite value >= 1"},
		{"dup derate", Plan{Derates: []Derate{{Core: 2, Factor: 2}, {Core: 2, Factor: 3}}}, "derated twice"},
		{"ext scale zero-ish", Plan{ExtScale: -0.5}, "outside (0, 1]"},
		{"ext scale above one", Plan{ExtScale: 1.5}, "outside (0, 1]"},
		{"ext scale NaN", Plan{ExtScale: math.NaN()}, "outside (0, 1]"},
		{"link rate above one", Plan{Links: []LinkFault{{From: 0, To: 1, Rate: 2}}}, "outside [0, 1]"},
		{"link rate NaN", Plan{Links: []LinkFault{{From: 0, To: 1, Rate: math.NaN()}}}, "outside [0, 1]"},
		{"link timeout Inf", Plan{Links: []LinkFault{{From: 0, To: 1, Rate: 0.1, TimeoutCycles: math.Inf(1)}}}, "not a finite non-negative"},
		{"link backoff negative", Plan{Links: []LinkFault{{From: 0, To: 1, Rate: 0.1, BackoffCycles: -3}}}, "not a finite non-negative"},
		{"link retries above cap", Plan{Links: []LinkFault{{From: 0, To: 1, Rate: 0.1, MaxRetries: MaxRetryCap + 1}}}, "retries"},
		{"link bad endpoint", Plan{Links: []LinkFault{{From: -3, To: 1, Rate: 0.1}}}, "invalid endpoint"},
		{"dup link", Plan{Links: []LinkFault{{From: 0, To: 1, Rate: 0.1}, {From: 0, To: 1, Rate: 0.2}}}, "configured twice"},
		{"dma bad core", Plan{DMAs: []DMAFault{{Core: -2, Rate: 0.1}}}, "invalid core"},
		{"dup dma", Plan{DMAs: []DMAFault{{Core: 4, Rate: 0.1}, {Core: 4, Rate: 0.2}}}, "configured twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestCompileFillsDefaults(t *testing.T) {
	p := Plan{
		Links: []LinkFault{{From: 0, To: 1, Rate: 0.1}},
		DMAs:  []DMAFault{{Core: 2, Rate: 0.05}},
	}
	inj := MustCompile(p)
	l, ok := inj.LinkFaultFor(0, 1)
	if !ok {
		t.Fatal("link fault not found")
	}
	if l.TimeoutCycles != DefaultLinkTimeout || l.BackoffCycles != DefaultLinkBackoff || l.MaxRetries != DefaultLinkRetries {
		t.Errorf("link defaults not applied: %+v", l)
	}
	d, ok := inj.DMAFaultFor(2)
	if !ok {
		t.Fatal("dma fault not found")
	}
	if d.TimeoutCycles != DefaultDMATimeout || d.MaxRetries != DefaultDMARetries {
		t.Errorf("dma defaults not applied: %+v", d)
	}
	// Compile must not mutate the caller's plan, and the injector keeps
	// its own copy: editing the plan afterwards changes no decision.
	if p.Links[0].TimeoutCycles != 0 {
		t.Error("Compile mutated the source plan")
	}
	p.Links[0].Rate, p.DMAs[0].Core = 1, 3
	if l, _ := inj.LinkFaultFor(0, 1); l.Rate != 0.1 {
		t.Errorf("link rate %v after editing the source plan, want 0.1", l.Rate)
	}
	if _, ok := inj.DMAFaultFor(2); !ok {
		t.Error("dma fault moved with an edit to the source plan")
	}
}

func TestHaltedCoresSorted(t *testing.T) {
	// The chip halt is listed apart: HaltedCores names core halts only.
	inj := MustCompile(Plan{Halts: []int{9, 2, 5}, ChipHalts: []int{1}})
	got := inj.HaltedCores()
	want := []int{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("HaltedCores() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HaltedCores() = %v, want %v", got, want)
		}
	}
	if !inj.Halted(5) || inj.Halted(3) {
		t.Error("Halted() disagrees with the plan")
	}
	if !inj.ChipHalted(1) || inj.ChipHalted(0) {
		t.Error("ChipHalted() disagrees with the plan")
	}
}

func TestWildcardSpecificity(t *testing.T) {
	inj := MustCompile(Plan{Links: []LinkFault{
		{From: -1, To: -1, Rate: 0.01},
		{From: -1, To: 7, Rate: 0.02},
		{From: 3, To: 7, Rate: 0.03},
	}})
	cases := []struct {
		from, to int
		rate     float64
	}{
		{3, 7, 0.03},  // exact beats both wildcards
		{5, 7, 0.02},  // single wildcard beats the catch-all
		{3, 9, 0.01},  // only the catch-all matches
		{11, 0, 0.01}, // catch-all
	}
	for _, tc := range cases {
		l, ok := inj.LinkFaultFor(tc.from, tc.to)
		if !ok || l.Rate != tc.rate {
			t.Errorf("LinkFaultFor(%d,%d) rate = %v (ok=%v), want %v", tc.from, tc.to, l.Rate, ok, tc.rate)
		}
	}

	dinj := MustCompile(Plan{DMAs: []DMAFault{
		{Core: -1, Rate: 0.01},
		{Core: 4, Rate: 0.05},
	}})
	if d, _ := dinj.DMAFaultFor(4); d.Rate != 0.05 {
		t.Errorf("DMAFaultFor(4) rate = %v, want the exact match 0.05", d.Rate)
	}
	if d, _ := dinj.DMAFaultFor(6); d.Rate != 0.01 {
		t.Errorf("DMAFaultFor(6) rate = %v, want the wildcard 0.01", d.Rate)
	}
}

func TestRetryDeterminism(t *testing.T) {
	p := Plan{
		Seed:  1234,
		Links: []LinkFault{{From: -1, To: -1, Rate: 0.3}},
		DMAs:  []DMAFault{{Core: -1, Rate: 0.2}},
	}
	a, b := MustCompile(p), MustCompile(p)
	for idx := uint64(0); idx < 500; idx++ {
		if x, y := a.LinkRetries(0, 1, idx), b.LinkRetries(0, 1, idx); x != y {
			t.Fatalf("link retries diverge at idx %d: %d vs %d", idx, x, y)
		}
		if x, y := a.DMARetries(3, idx), b.DMARetries(3, idx); x != y {
			t.Fatalf("dma retries diverge at idx %d: %d vs %d", idx, x, y)
		}
	}

	// A different seed must produce a different fault stream.
	p2 := p
	p2.Seed = 4321
	c := MustCompile(p2)
	same := true
	for idx := uint64(0); idx < 500 && same; idx++ {
		same = a.LinkRetries(0, 1, idx) == c.LinkRetries(0, 1, idx)
	}
	if same {
		t.Error("seeds 1234 and 4321 produced identical retry streams")
	}

	// Distinct links draw from distinct streams.
	same = true
	for idx := uint64(0); idx < 500 && same; idx++ {
		same = a.LinkRetries(0, 1, idx) == a.LinkRetries(1, 0, idx)
	}
	if same {
		t.Error("links 0->1 and 1->0 share a fault stream")
	}
}

func TestRetryDistribution(t *testing.T) {
	const rate = 0.25
	inj := MustCompile(Plan{Seed: 7, Links: []LinkFault{{From: -1, To: -1, Rate: rate}}})
	const n = 20000
	failed := 0
	for idx := uint64(0); idx < n; idx++ {
		if inj.LinkRetries(0, 1, idx) > 0 {
			failed++
		}
	}
	got := float64(failed) / n
	if math.Abs(got-rate) > 0.02 {
		t.Errorf("first-attempt failure fraction = %.4f, want ~%.2f", got, rate)
	}
}

func TestRetriesForcedThrough(t *testing.T) {
	// Rate 1 fails every attempt; the transfer must still be forced
	// through after MaxRetries so a plan can never deadlock a run.
	inj := MustCompile(Plan{Links: []LinkFault{{From: 0, To: 1, Rate: 1, MaxRetries: 3}}})
	for idx := uint64(0); idx < 10; idx++ {
		if n := inj.LinkRetries(0, 1, idx); n != 3 {
			t.Fatalf("LinkRetries at rate 1 = %d, want exactly MaxRetries 3", n)
		}
	}
	dinj := MustCompile(Plan{DMAs: []DMAFault{{Core: -1, Rate: 1, MaxRetries: 2}}})
	if n := dinj.DMARetries(0, 0); n != 2 {
		t.Fatalf("DMARetries at rate 1 = %d, want exactly MaxRetries 2", n)
	}
}
