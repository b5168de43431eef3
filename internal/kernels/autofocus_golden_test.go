package kernels

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"sarmany/internal/autofocus"
	"sarmany/internal/emu"
)

// afGolden pins one modeled autofocus run exactly: the chip's finish time,
// the summed per-core statistics, and a digest of every link's occupancy
// (in creation order) with its link count.
type afGolden struct {
	maxCycles   float64
	total       emu.CoreStats
	links       int
	linksSHA256 string
}

// afGoldenStats is the operation and traffic mix of 6 pairs x 9 shifts;
// it is the same for one pipeline and for three replicas sharing the
// stream, which differ only in their stall and compute cycles.
var afGoldenStats = emu.CoreStats{
	FMA: 74358, Flop: 17496, IOp: 6264,
	LocalLoads: 4212, RemoteWrites: 672,
	ExtReads: 12, ExtWrites: 54, ExtReadB: 3456, ExtWriteB: 216,
	NoCBytes: 30240, DMATransfers: 12, DMABytes: 3456,
}

func withCycles(s emu.CoreStats, stall, compute, dmaStall, linkStall float64) emu.CoreStats {
	s.StallCycles, s.ComputeCycles = stall, compute
	s.DMAStallCycles, s.LinkStallCycles = dmaStall, linkStall
	return s
}

// TestParAutofocusGolden pins the modeled output of the streaming pipeline
// exactly — one pipeline on the 16-core chip and three replicas on the
// 64-core device — so a change to how the pipeline is wired or run cannot
// move a cycle, an operation count or a link's occupancy unnoticed.
func TestParAutofocusGolden(t *testing.T) {
	pairs := testPairs(6)
	shifts := autofocus.RangeSweep(-1.2, 1.2, 9)
	for _, tc := range []struct {
		name string
		p    emu.Params
		n    int
		want afGolden
	}{
		{"E16G3x1", emu.E16G3(), 1, afGolden{
			maxCycles:   13015,
			total:       withCycles(afGoldenStats, 71505, 95702, 4416, 67089),
			links:       16,
			linksSHA256: "16ceb30672b52d4712ec74b72f9095c8921fcca199ab67c6af2cb0a29a796421",
		}},
		{"E64x3", emu.E64(), 3, afGolden{
			maxCycles:   4542,
			total:       withCycles(afGoldenStats, 75381, 95706, 4416, 70965),
			links:       48,
			linksSHA256: "17babc2747c8cd84fc3d7f5ce4bdb5ab9d627b68150c0c5f82982eeae34a23d5",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch := emu.New(tc.p)
			if _, err := ParAutofocusMulti(ch, tc.n, pairs, shifts); err != nil {
				t.Fatal(err)
			}
			if got := ch.MaxCycles(); got != tc.want.maxCycles {
				t.Errorf("MaxCycles %v, want %v", got, tc.want.maxCycles)
			}
			if got := ch.TotalStats(); got != tc.want.total {
				t.Errorf("TotalStats\n got %+v\nwant %+v", got, tc.want.total)
			}
			ls := ch.LinkStats()
			sum := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", ls))))
			if len(ls) != tc.want.links || sum != tc.want.linksSHA256 {
				t.Errorf("LinkStats: %d links digest %s, want %d links digest %s\n%+v",
					len(ls), sum, tc.want.links, tc.want.linksSHA256, ls)
			}
		})
	}
}

// TestFlowAutofocusValidation checks that the flow-built pipeline rejects
// inputs it cannot map before any node runs: a rejected graph leaves the
// chip's clock at zero.
func TestFlowAutofocusValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      emu.Params
		pairs  []BlockPair
		shifts []autofocus.Shift
	}{
		{"too-small-chip", emu.E16G3().WithMesh(2, 2), testPairs(1), autofocus.RangeSweep(-1, 1, 3)},
		{"empty-pairs", emu.E16G3(), nil, autofocus.RangeSweep(-1, 1, 3)},
		{"empty-shifts", emu.E16G3(), testPairs(1), nil},
	} {
		ch := emu.New(tc.p)
		if _, err := ParAutofocus(ch, tc.pairs, tc.shifts); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if got := ch.MaxCycles(); got != 0 {
			t.Errorf("%s: rejected graph ran for %v cycles", tc.name, got)
		}
	}
}

// TestFlowAutofocusDeterministic reruns the flow-built pipeline and checks
// that scores, finish time, core statistics and link occupancy all repeat
// exactly.
func TestFlowAutofocusDeterministic(t *testing.T) {
	pairs := testPairs(3)
	shifts := autofocus.RangeSweep(-1, 1, 5)
	run := func() string {
		ch := emu.New(emu.E16G3())
		scores, err := ParAutofocus(ch, pairs, shifts)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|%v|%+v|%+v", scores, ch.MaxCycles(), ch.TotalStats(), ch.LinkStats())
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n got %s\nfirst %s", i, got, first)
		}
	}
}
