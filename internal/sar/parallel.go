package sar

import (
	"runtime"
	"sync"

	"sarmany/internal/mat"
)

// SimulatePar is Simulate with the per-pulse synthesis fanned out across
// a bounded pool of workers (<= 0 means runtime.GOMAXPROCS(0)). Pulses
// are independent rows, so the output is bit-identical to Simulate for
// any worker count — cmd/sarsim's -j flag relies on that.
func SimulatePar(p Params, targets []Target, pathErr PathError, workers int) *mat.C {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	data := mat.NewC(p.NumPulses, p.NumBins)
	parallelRows(p.NumPulses, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			simulatePulse(data, p, i, targets, pathErr)
		}
	})
	return data
}

// SimulateRawPar is SimulateRaw with the per-pulse synthesis fanned out
// across workers; the output is bit-identical to SimulateRaw.
func SimulateRawPar(p Params, ch Chirp, targets []Target, pathErr PathError, workers int) *mat.C {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	ref := ch.Reference()
	raw := mat.NewC(p.NumPulses, p.NumBins+ch.Samples-1)
	parallelRows(p.NumPulses, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			simulateRawPulse(raw, p, ref, i, targets, pathErr)
		}
	})
	return raw
}

// parallelRows splits the rows [0, n) into one contiguous band per
// worker (<= 0 means runtime.GOMAXPROCS(0)) and calls fn once per band,
// on the caller's goroutine when there is only one. fn may keep scratch
// across its band; rows touch disjoint memory, so no synchronization
// beyond the final join is needed.
func parallelRows(n, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for _, sl := range mat.Partition(n, workers) {
		wg.Add(1)
		go func(sl mat.Slice) {
			defer wg.Done()
			fn(sl.Lo, sl.Hi)
		}(sl)
	}
	wg.Wait()
}
