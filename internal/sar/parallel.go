package sar

import (
	"runtime"
	"sync"

	"sarmany/internal/mat"
)

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
