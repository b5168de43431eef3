// Sarsim generates synthetic pulse-compressed stripmap SAR data — the
// input of the back-projection stage (paper Fig. 7a). The scene is either
// the paper's six-point-target validation scenario or a custom target list
// given as "u,y,amp;u,y,amp;...". An optional sinusoidal flight-path error
// can be injected for autofocus experiments.
//
// Usage:
//
//	sarsim -o data.sar                        # paper-scale six-target scene
//	sarsim -pulses 256 -bins 241 -o data.sar  # reduced geometry
//	sarsim -targets "0,2250,1;-120,2190,0.7" -o data.sar
//	sarsim -patherr-amp 1.5 -patherr-period 400 -o data.sar
//	sarsim -o data.sar -png raw.png           # also render the raw data
//	sarsim -o data.sar -json                  # print dataset metadata as JSON
//	sarsim -cache-dir .sarcache -o data.sar   # reuse a previously built dataset
//
// Synthesis and -chirp's pulse compression spread the pulses over
// GOMAXPROCS workers; the output is bit-identical for any worker count.
// -cache-dir keys the finished dataset by a content address of every
// generation parameter, so repeating an invocation copies the cached file
// instead of resimulating.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"time"

	"sarmany/internal/dataio"
	"sarmany/internal/imageio"
	"sarmany/internal/logx"
	"sarmany/internal/mat"
	"sarmany/internal/sar"
	"sarmany/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sarsim: ")

	var (
		out      = flag.String("o", "data.sar", "output data file")
		pngOut   = flag.String("png", "", "optional PNG rendering of the raw data")
		pulses   = flag.Int("pulses", 0, "number of pulses (default: paper's 1024)")
		bins     = flag.Int("bins", 0, "range bins per pulse (default: paper's 1001)")
		r0       = flag.Float64("r0", 0, "near range of bin 0 in metres (default 2000)")
		targets  = flag.String("targets", "", `scene as "u,y,amp;..." (default: six-target scene)`)
		peAmp    = flag.Float64("patherr-amp", 0, "flight-path error amplitude (m)")
		pePer    = flag.Float64("patherr-period", 500, "flight-path error period (m)")
		chirp    = flag.Bool("chirp", false, "synthesize raw chirp echoes and pulse-compress them (slower) instead of direct synthesis")
		noise    = flag.Float64("noise", 0, "complex Gaussian noise deviation per sample")
		rfi      = flag.Float64("rfi", 0, "narrowband interference amplitude (0 = none)")
		rfiFreq  = flag.Float64("rfi-freq", 0.21, "interference frequency (cycles/sample)")
		notch    = flag.Float64("notch", 0, "notch-filter threshold (0 = no filtering; typical 4-8)")
		jsonOut  = flag.Bool("json", false, "print dataset metadata as JSON instead of text")
		cacheDir = flag.String("cache-dir", "", "dataset cache directory (empty = no caching)")
		ledgerD  = flag.String("ledger", telemetry.DefaultDir, "run-ledger directory; empty disables recording")
	)
	var logCfg logx.Config
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	lg := logCfg.MustNew("sarsim")
	start := time.Now()

	p := sar.DefaultParams()
	if *pulses > 0 {
		p.NumPulses = *pulses
	}
	if *bins > 0 {
		p.NumBins = *bins
	}
	if *r0 > 0 {
		p.R0 = *r0
	}
	if err := p.Validate(); err != nil {
		log.Fatal(err)
	}

	scene := sar.SixTargetScene(p)
	if *targets != "" {
		var err error
		scene, err = parseTargets(*targets)
		if err != nil {
			log.Fatal(err)
		}
	}

	var pathErr sar.PathError
	if *peAmp != 0 {
		amp, period := *peAmp, *pePer
		pathErr = func(u float64) float64 {
			return amp * math.Sin(2*math.Pi*u/period)
		}
	}

	// The cache key covers every parameter that shapes the dataset bytes,
	// and no output path.
	key := ""
	if *cacheDir != "" {
		key = datasetKey(p, scene, *peAmp, *pePer, *chirp, *noise, *rfi, *rfiFreq, *notch)
	}

	var data *mat.C
	notched := 0
	cached := false
	if key != "" {
		if d, n, ok := loadCachedDataset(*cacheDir, key); ok {
			data, notched, cached = d, n, true
		}
	}
	if data == nil {
		if *chirp {
			ch := p.DefaultChirp()
			raw := sar.SimulateRaw(p, ch, scene, pathErr)
			data = sar.Compress(p, ch, raw)
		} else {
			data = sar.Simulate(p, scene, pathErr)
		}
		if *rfi != 0 {
			sar.InjectRFI(data, *rfiFreq, float32(*rfi), 0.7)
		}
		if *noise > 0 {
			sar.AddNoise(data, *noise, 1)
		}
		if *notch > 0 {
			n, err := sar.NotchFilter(data, *notch)
			if err != nil {
				log.Fatal(err)
			}
			notched = n
		}
	}
	if *notch > 0 && !*jsonOut {
		fmt.Printf("notch filter excised %d spectral bins\n", notched)
	}

	if err := dataio.WriteFile(*out, p, data); err != nil {
		log.Fatal(err)
	}
	if key != "" && !cached {
		if err := storeCachedDataset(*cacheDir, key, p, data, notched); err != nil {
			log.Printf("cache store failed: %v", err)
		}
	}

	if *pngOut != "" {
		if err := imageio.Save(*pngOut, data, 50); err != nil {
			log.Fatal(err)
		}
	}

	// Record the generated dataset in the run ledger. The data_sha256
	// extra hashes the written file, so two sarsim runs with the same
	// parameters can prove bit-identical output via sarlog diff.
	if *ledgerD != "" {
		e, lerr := telemetry.NewEntry("sarsim", start, map[string]any{
			"params":         p,
			"targets":        scene,
			"patherr_amp":    *peAmp,
			"patherr_period": *pePer,
			"chirp":          *chirp,
			"noise":          *noise,
			"rfi":            *rfi,
			"rfi_freq":       *rfiFreq,
			"notch":          *notch,
		}, fmt.Sprintf("pulses=%d", p.NumPulses), fmt.Sprintf("bins=%d", p.NumBins))
		if lerr != nil {
			log.Printf("ledger: %v", lerr)
		} else {
			e.Extra = map[string]any{
				"file":         *out,
				"notched_bins": notched,
				"cached":       cached,
			}
			if b, rerr := os.ReadFile(*out); rerr == nil {
				sum := sha256.Sum256(b)
				e.Extra["data_sha256"] = hex.EncodeToString(sum[:])
			}
			if id, lerr := telemetry.Record(*ledgerD, e); lerr != nil {
				lg.Warn("ledger append failed", "err", lerr)
			} else {
				lg.Info(fmt.Sprintf("run %s recorded in %s", id, *ledgerD), "run_id", id)
			}
		}
	}

	if *jsonOut {
		meta := struct {
			File         string       `json:"file"`
			PNG          string       `json:"png,omitempty"`
			Pulses       int          `json:"pulses"`
			Bins         int          `json:"bins"`
			R0           float64      `json:"r0_m"`
			DR           float64      `json:"dr_m"`
			PulseSpacing float64      `json:"pulse_spacing_m"`
			Aperture     float64      `json:"aperture_m"`
			Targets      []sar.Target `json:"targets"`
			Chirp        bool         `json:"chirp"`
			PathErrAmp   float64      `json:"patherr_amp_m"`
			Noise        float64      `json:"noise"`
			NotchedBins  int          `json:"notched_bins,omitempty"`
		}{
			File: *out, PNG: *pngOut,
			Pulses: p.NumPulses, Bins: p.NumBins,
			R0: p.R0, DR: p.DR, PulseSpacing: p.PulseSpacing, Aperture: p.ApertureLength(),
			Targets: scene, Chirp: *chirp,
			PathErrAmp: *peAmp, Noise: *noise, NotchedBins: notched,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(meta); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("wrote %s: %d pulses x %d bins, %d targets\n", *out, p.NumPulses, p.NumBins, len(scene))
	if *pngOut != "" {
		fmt.Printf("wrote %s\n", *pngOut)
	}
}

// datasetKey content-addresses a dataset: a SHA-256 over the canonical
// JSON of every generation parameter. encoding/json marshals struct
// fields in declaration order, so equal parameter sets hash equally.
// The "v1" salt invalidates old entries if the synthesis code changes.
func datasetKey(p sar.Params, scene []sar.Target, peAmp, pePer float64, chirp bool, noise, rfi, rfiFreq, notch float64) string {
	b, err := json.Marshal(struct {
		Salt    string       `json:"salt"`
		Params  sar.Params   `json:"params"`
		Scene   []sar.Target `json:"scene"`
		PEAmp   float64      `json:"patherr_amp"`
		PEPer   float64      `json:"patherr_period"`
		Chirp   bool         `json:"chirp"`
		Noise   float64      `json:"noise"`
		RFI     float64      `json:"rfi"`
		RFIFreq float64      `json:"rfi_freq"`
		Notch   float64      `json:"notch"`
	}{"sarsim-v1", p, scene, peAmp, pePer, chirp, noise, rfi, rfiFreq, notch})
	if err != nil {
		log.Fatal(err) // plain-data structs; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cacheMeta is the sidecar record stored next to a cached dataset for
// byproducts that are not part of the .sar bytes.
type cacheMeta struct {
	NotchedBins int `json:"notched_bins"`
}

func cachePaths(dir, key string) (dataPath, metaPath string) {
	base := filepath.Join(dir, "sarsim-"+key)
	return base + ".sar", base + ".json"
}

// loadCachedDataset returns the cached dataset and its notched-bins
// count, or ok=false on any miss (absent, unreadable, or corrupt — the
// rerun overwrites it).
func loadCachedDataset(dir, key string) (*mat.C, int, bool) {
	dataPath, metaPath := cachePaths(dir, key)
	_, data, err := dataio.ReadFile(dataPath)
	if err != nil {
		return nil, 0, false
	}
	var meta cacheMeta
	mb, err := os.ReadFile(metaPath)
	if err != nil || json.Unmarshal(mb, &meta) != nil {
		return nil, 0, false
	}
	return data, meta.NotchedBins, true
}

// storeCachedDataset writes the dataset and its sidecar meta into the
// cache. The meta file lands last so a reader that sees it can rely on
// the dataset being complete.
func storeCachedDataset(dir, key string, p sar.Params, data *mat.C, notched int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dataPath, metaPath := cachePaths(dir, key)
	if err := dataio.WriteFile(dataPath, p, data); err != nil {
		return err
	}
	mb, err := json.Marshal(cacheMeta{NotchedBins: notched})
	if err != nil {
		return err
	}
	return os.WriteFile(metaPath, mb, 0o644)
}

func parseTargets(s string) ([]sar.Target, error) {
	var out []sar.Target
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ",")
		if len(f) != 3 {
			return nil, fmt.Errorf("target %q: want u,y,amp", part)
		}
		u, err1 := strconv.ParseFloat(strings.TrimSpace(f[0]), 64)
		y, err2 := strconv.ParseFloat(strings.TrimSpace(f[1]), 64)
		a, err3 := strconv.ParseFloat(strings.TrimSpace(f[2]), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("target %q: parse error", part)
		}
		out = append(out, sar.Target{U: u, Y: y, Amp: float32(a)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no targets in %q", s)
	}
	return out, nil
}
