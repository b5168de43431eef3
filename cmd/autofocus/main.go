// Autofocus demonstrates the paper's autofocus criterion calculation on a
// defocused data set: it simulates a scene with a known flight-path error,
// forms the two half-aperture subaperture images of the final FFBP merge,
// extracts 6x6 blocks around the brightest point, and sweeps candidate
// flight-path compensations, printing the criterion curve. The criterion
// maximum should fall at the compensation matching the injected error.
//
// Usage:
//
//	autofocus                     # built-in demo scene
//	autofocus -error 1.0          # inject a 1 m path displacement
//	autofocus -sweep 31 -max 2.5  # 31 candidates over +/-2.5 pixels
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"sarmany/internal/autofocus"
	"sarmany/internal/ffbp"
	"sarmany/internal/geom"
	"sarmany/internal/interp"
	"sarmany/internal/logx"
	"sarmany/internal/mat"
	"sarmany/internal/quality"
	"sarmany/internal/sar"
	"sarmany/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("autofocus: ")

	var (
		errM = flag.Float64("error", 0.75, "injected cross-track path displacement of the second half-aperture (m)")
		n    = flag.Int("sweep", 21, "number of candidate compensations")
		// The 4-tap Neville window supports shifts up to ~1.5 pixels;
		// beyond that the cubic extrapolates and the criterion is
		// meaningless.
		maxPx   = flag.Float64("max", 1.5, "sweep half-range in range pixels (<= 1.5)")
		ledgerD = flag.String("ledger", telemetry.DefaultDir, "run-ledger directory; empty disables recording")
	)
	var logCfg logx.Config
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	lg := logCfg.MustNew("autofocus")
	start := time.Now()

	p := sar.DefaultParams()
	p.NumPulses = 256
	p.NumBins = 241
	p.R0 = 500
	box := geom.SceneBox{UMin: -40, UMax: 40, YMin: 510, YMax: 610, ThetaPad: 0.05}
	tg := sar.Target{U: 0, Y: 555, Amp: 1}

	// A step path error over the second half of the aperture: the two
	// contributing subapertures of the final merge see the scene displaced
	// relative to each other — the situation autofocus must detect.
	displacement := *errM
	pathErr := func(u float64) float64 {
		if u > 0 {
			return displacement
		}
		return 0
	}
	data := sar.Simulate(p, []sar.Target{tg}, pathErr)

	fMinus, fPlus, err := halfApertureBlocks(data, p, box)
	if err != nil {
		log.Fatal(err)
	}

	cands := autofocus.RangeSweep(-*maxPx, *maxPx, *n)
	best, all, err := autofocus.Search(&fMinus, &fPlus, cands)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("injected path error: %.2f m (%.2f range pixels)\n", displacement, displacement/p.DR)
	fmt.Printf("%10s  %14s\n", "shift(px)", "criterion")
	for _, r := range all {
		bar := strings.Repeat("#", int(40*r.Score/best.Score))
		fmt.Printf("%10.2f  %14.5g  %s\n", r.Shift.DRange, r.Score, bar)
	}
	fmt.Printf("best compensation: %.2f pixels (%.2f m)\n", best.Shift.DRange, best.Shift.DRange*p.DR)

	// Record the criterion sweep in the run ledger: the injected error
	// and sweep shape as config, the best compensation and its score as
	// deterministic extras a sarlog diff can gate on.
	if *ledgerD != "" {
		e, lerr := telemetry.NewEntry("autofocus", start, map[string]any{
			"error_m": displacement,
			"sweep":   *n,
			"max_px":  *maxPx,
			"params":  p,
		}, fmt.Sprintf("error=%g", displacement), fmt.Sprintf("sweep=%d", *n))
		if lerr != nil {
			log.Printf("ledger: %v", lerr)
		} else {
			e.Extra = map[string]any{
				"best_shift_px": best.Shift.DRange,
				"best_shift_m":  best.Shift.DRange * p.DR,
				"best_score":    best.Score,
			}
			if id, lerr := telemetry.Record(*ledgerD, e); lerr != nil {
				lg.Warn("ledger append failed", "err", lerr)
			} else {
				lg.Info(fmt.Sprintf("run %s recorded in %s", id, *ledgerD), "run_id", id)
			}
		}
	}
}

// halfApertureBlocks runs FFBP up to the last merge, producing the two
// contributing half-aperture images, and extracts a 6x6 block around the
// brightest pixel of each (at the same nominal position).
func halfApertureBlocks(data *mat.C, p sar.Params, box geom.SceneBox) (m, q autofocus.Block, err error) {
	s, err := ffbp.InitialStage(data, p, box)
	if err != nil {
		return m, q, err
	}
	cfg := ffbp.Config{Interp: interp.Cubic}
	for s.NumSubapertures() > 2 {
		if s, err = ffbp.Merge(s, box, cfg); err != nil {
			return m, q, err
		}
	}
	a, b := s.Images[0], s.Images[1]
	ra, ca, _ := quality.Peak(quality.Mag(a))
	// Use the same window in both images so a shift appears as content
	// displacement, and clamp so the 6x6 block stays inside.
	r0 := min(max(ra-autofocus.BlockSize/2, 0), a.Rows-autofocus.BlockSize)
	c0 := min(max(ca-autofocus.BlockSize/2, 0), a.Cols-autofocus.BlockSize)
	if m, err = autofocus.BlockFrom(a, r0, c0); err != nil {
		return m, q, err
	}
	q, err = autofocus.BlockFrom(b, r0, c0)
	return m, q, err
}
