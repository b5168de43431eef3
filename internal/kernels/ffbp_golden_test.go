package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"sarmany/internal/emu"
	"sarmany/internal/geom"
	"sarmany/internal/mat"
	"sarmany/internal/refcpu"
)

// imageSHA256 digests the raw float32 bits of every pixel, row by row, so
// a golden catches a sign-of-zero or last-bit change that Equal or a
// printed value could miss.
func imageSHA256(img *mat.C) string {
	h := sha256.New()
	var b [8]byte
	for r := 0; r < img.Rows; r++ {
		for _, v := range img.Row(r) {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(real(v)))
			binary.LittleEndian.PutUint32(b[4:], math.Float32bits(imag(v)))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// ffbpGoldenImage is the digest of the 64x161 FFBP image every FFBP kernel
// produces on testSetup (it is also ffbp.Image with Nearest).
const ffbpGoldenImage = "5426c4952934944ec8c28e862260147afa1d11475da25b62748f99ff56d1fd0d"

// ffbpGoldenOps is the charged operation mix of one FFBP run on testSetup;
// every variant charges the same arithmetic and differs only in where its
// loads and stores land.
var ffbpGoldenOps = emu.CoreStats{
	FMA: 980416, Flop: 370944, IOp: 516736,
	Div: 123648, Sqrt: 123648, Trig: 134720,
}

// ffbpParStats is ffbpGoldenOps plus the traffic and stall breakdown the
// parallel kernel adds on a chip.
func ffbpParStats(barrierWaits uint64, stall, compute, dmaStall, barrierStall float64) emu.CoreStats {
	s := ffbpGoldenOps
	s.LocalLoads = 30912
	s.ExtReads, s.ExtWrites, s.ExtReadB, s.ExtWriteB = 102498, 72128, 983824, 577024
	s.DMATransfers, s.DMABytes, s.BarrierWaits = 128, 164864, barrierWaits
	s.StallCycles, s.ComputeCycles = stall, compute
	s.ExtStallCycles, s.DMAStallCycles, s.BarrierStallCycles = 9.00856e+06, dmaStall, barrierStall
	return s
}

// TestFFBPKernelsGolden pins the modeled output of the FFBP kernels (and
// SeqGBP's cycles) exactly on testSetup: cycles, operation and traffic
// counts, the parallel runs' phase tables and every image's bits. A change
// to how the kernels compute their pixels must leave all of it unchanged;
// one that moves it is a model change.
func TestFFBPKernelsGolden(t *testing.T) {
	p, box, data := testSetup()
	checkImage := func(t *testing.T, img *mat.C, want string) {
		t.Helper()
		if got := imageSHA256(img); got != want {
			t.Errorf("image digest %s, want %s", got, want)
		}
	}

	t.Run("SeqFFBP/I7M620", func(t *testing.T) {
		cpu := refcpu.New(refcpu.I7M620())
		img, _, err := SeqFFBP(cpu, cpu.Mem(), data, p, box)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cpu.Cycles(), 1.936989539999649e+07; got != want {
			t.Errorf("Cycles %v, want %v", got, want)
		}
		want := refcpu.Stats{
			FMA: 980416, Flop: 370944, IOp: 516736,
			Div: 123648, Sqrt: 123648, Trig: 134720,
			Loads: 133282, Stores: 72128,
			Served: [4]uint64{187394, 14152, 0, 3864},
		}
		if cpu.Stats != want {
			t.Errorf("Stats\n got %+v\nwant %+v", cpu.Stats, want)
		}
		checkImage(t, img, ffbpGoldenImage)
	})

	t.Run("SeqFFBP/E16G3core", func(t *testing.T) {
		ch := emu.New(emu.E16G3())
		core := ch.Cores[0]
		img, _, err := SeqFFBP(core, ch.Ext(), data, p, box)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := core.Cycles(), 2.2481074e+07; got != want {
			t.Errorf("Cycles %v, want %v", got, want)
		}
		want := ffbpGoldenOps
		want.ExtReads, want.ExtWrites, want.ExtReadB, want.ExtWriteB = 133282, 72128, 1066256, 577024
		want.StallCycles, want.ComputeCycles, want.ExtStallCycles = 1.1728816e+07, 1.0751926e+07, 1.1728816e+07
		if core.Stats != want {
			t.Errorf("Stats\n got %+v\nwant %+v", core.Stats, want)
		}
		checkImage(t, img, ffbpGoldenImage)
	})

	for _, tc := range []struct {
		name      string
		p         emu.Params
		cores     int
		maxCycles float64
		total     emu.CoreStats
		phases    string
	}{
		{"ParFFBP/E16G3x16", emu.E16G3(), 16, 1.560848e+06,
			ffbpParStats(112, 1.4216832e+07, 1.0756736e+07, 108160, 5.100112e+06),
			"19072a233242801f23e7cd2a9de4d2efa2cce24b0126670bb143063cfd4f2cb4"},
		{"ParFFBP/2x2chipsx64", emu.E16G3().WithChips(2, 2), 64, 432472,
			ffbpParStats(448, 1.6920832e+07, 1.0757376e+07, 173824, 7.738448e+06),
			"cd15b9a8bbd6dc0b7f0f454da3cbd206eedcc52bb693dfd3a9d57eb998a1d979"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch := emu.New(tc.p)
			img, _, err := ParFFBP(ch, tc.cores, data, p, box)
			if err != nil {
				t.Fatal(err)
			}
			if got := ch.MaxCycles(); got != tc.maxCycles {
				t.Errorf("MaxCycles %v, want %v", got, tc.maxCycles)
			}
			if got := ch.TotalStats(); got != tc.total {
				t.Errorf("TotalStats\n got %+v\nwant %+v", got, tc.total)
			}
			ph := ch.Phases()
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", ph)))); got != tc.phases {
				t.Errorf("Phases digest %s, want %s\n%+v", got, tc.phases, ph)
			}
			checkImage(t, img, ffbpGoldenImage)
		})
	}

	t.Run("SeqGBP/I7M620", func(t *testing.T) {
		full := geom.Aperture{Center: 0, Length: p.ApertureLength()}
		grid := box.GridFor(full, p.NumPulses, p.NumBins, p.R0, p.DR)
		cpu := refcpu.New(refcpu.I7M620())
		img, err := SeqGBP(cpu, cpu.Mem(), data, p, grid)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cpu.Cycles(), 3.1773805000374235e+07; got != want {
			t.Errorf("Cycles %v, want %v", got, want)
		}
		checkImage(t, img, "f44d872442a32b0e4f6f8437d5e9fa02cede3d76faa187440414509484c9241c")
	})
}
