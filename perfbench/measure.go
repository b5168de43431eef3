package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// stopwatch measures one region's wall seconds and heap allocation.
type stopwatch struct {
	t time.Time
	a float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), heapAllocs()} }

// stop returns the seconds and heap bytes since the watch started.
func (s stopwatch) stop() (sec, allocB float64) {
	return time.Since(s.t).Seconds(), heapAllocs() - s.a
}

// setup runs fn cfg.setups times (at least once), records each wall time
// in o.setupS and returns the last result: set-up is repeated so that
// setup_s can be a median.
func setup[T any](cfg config, o *outcome, fn func() (T, error)) (T, error) {
	var v T
	var err error
	for k := 0; k == 0 || k < cfg.setups; k++ {
		w := startWatch()
		if v, err = fn(); err != nil {
			return v, err
		}
		sec, _ := w.stop()
		o.setupS = append(o.setupS, sec)
	}
	return v, nil
}

// measure runs op until cfg.seconds have passed, and at least once. op
// times its own measured region and returns its seconds and heap bytes;
// a non-nil error means the operation failed or its output check did,
// which counts against fail_ratio without stopping the run. Every
// operation starts from a collected heap, so none pays for the garbage
// of the one before it and peak memory does not hang on when the
// collector happened to run.
func measure(cfg config, o *outcome, op func(i int) (sec, allocB float64, err error)) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		runtime.GC()
		sec, allocB, err := op(i)
		o.attempted++
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "operation %d failed: %v\n", i, err)
		}
		o.opS = append(o.opS, sec)
		o.allocB += allocB
		o.workS += sec
	}
}
