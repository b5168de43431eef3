package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sarmany/internal/bench"
	"sarmany/internal/emu"
	"sarmany/internal/kernels"
	"sarmany/internal/obs"
	"sarmany/internal/report"
	"sarmany/internal/sar"
)

// ffbpPoint is the test runner's envelope payload.
type ffbpPoint struct {
	Cores   int     `json:"cores"`
	Seconds float64 `json:"seconds"`
}

// testWorkload returns n jobs over a shared dataset plus the runner that
// executes them: a parallel FFBP simulation on an Epiphany mesh of Extra
// cores. The chip model is cycle-accounted, not wall-clock timed, so
// equal jobs always produce byte-identical envelopes.
func testWorkload(tb testing.TB, pulses, bins, n int) ([]Job, RunFunc) {
	tb.Helper()
	p := sar.DefaultParams()
	p.NumPulses = pulses
	p.NumBins = bins
	p.R0 = 500
	cfg := report.Config{Params: p, Box: report.DefaultBox(p)}
	data := sar.Simulate(p, sar.SixTargetScene(p), nil)

	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name: fmt.Sprintf("ffbp-%02d", i), Exp: "test-ffbp",
			Config: cfg, Extra: 1 + i%16,
		}
	}
	run := func(ctx context.Context, j Job) (bench.Result, error) {
		if err := ctx.Err(); err != nil {
			return bench.Result{}, err
		}
		cores := j.Extra.(int)
		chip := emu.New(emu.E16G3())
		if _, _, err := kernels.ParFFBP(chip, cores, data, j.Config.Params, j.Config.Box); err != nil {
			return bench.Result{}, err
		}
		return bench.Result{
			Name: j.Name, Title: "test FFBP point",
			Pulses: pulses, Bins: bins,
			Salt: bench.EnvelopeSalt, Version: bench.Version(),
			Data: ffbpPoint{Cores: cores, Seconds: chip.Time()},
		}, nil
	}
	return jobs, run
}

func counter(r *obs.Registry, name string) float64 {
	return r.Counter(name).Value()
}

// TestSweepColdWarmIdentical is the engine's core contract: a 16-job
// sweep on 8 workers, run cold and then warm against the same cache,
// returns byte-identical result envelopes in input order — and the warm
// run performs zero chip simulations (sweep.jobs.executed stays 0).
func TestSweepColdWarmIdentical(t *testing.T) {
	jobs, run := testWorkload(t, 64, 61, 16)
	dir := t.TempDir()

	cold := obs.NewRegistry()
	cres, err := Run(context.Background(), jobs, Options{
		Workers: 8, CacheDir: dir, Metrics: cold, Run: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := counter(cold, "sweep.jobs.executed"); got != 16 {
		t.Errorf("cold executed = %v, want 16", got)
	}
	if got := counter(cold, "sweep.jobs.cached"); got != 0 {
		t.Errorf("cold cached = %v, want 0", got)
	}
	if got := counter(cold, "sweep.jobs.done"); got != 16 {
		t.Errorf("cold done = %v, want 16", got)
	}

	warm := obs.NewRegistry()
	wres, err := Run(context.Background(), jobs, Options{
		Workers: 8, CacheDir: dir, Metrics: warm, Run: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := counter(warm, "sweep.jobs.executed"); got != 0 {
		t.Errorf("warm executed = %v, want 0 (no simulations on a warm cache)", got)
	}
	if got := counter(warm, "sweep.jobs.cached"); got != 16 {
		t.Errorf("warm cached = %v, want 16", got)
	}

	for i := range jobs {
		c, w := cres[i], wres[i]
		if c.Err != nil || w.Err != nil {
			t.Fatalf("job %d: cold err %v, warm err %v", i, c.Err, w.Err)
		}
		if c.Index != i || w.Index != i || c.Job.Name != jobs[i].Name || w.Job.Name != jobs[i].Name {
			t.Errorf("job %d: results out of input order (cold %q@%d, warm %q@%d)",
				i, c.Job.Name, c.Index, w.Job.Name, w.Index)
		}
		if c.Cached {
			t.Errorf("job %d: cold run reported a cache hit", i)
		}
		if !w.Cached {
			t.Errorf("job %d: warm run missed the cache", i)
		}
		if len(c.Raw) == 0 || !bytes.Equal(c.Raw, w.Raw) {
			t.Errorf("job %d: warm envelope differs from cold (%d vs %d bytes)",
				i, len(c.Raw), len(w.Raw))
		}
		// The replayed Result equals the fresh one field for field once
		// its raw payload is decoded.
		replay := w.Result
		raw, ok := replay.Data.(json.RawMessage)
		if !ok {
			t.Fatalf("job %d: warm Data is %T, want the raw payload", i, replay.Data)
		}
		var pt ffbpPoint
		if err := json.Unmarshal(raw, &pt); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		replay.Data = pt
		if !reflect.DeepEqual(replay, c.Result) {
			t.Errorf("job %d: warm Result %+v, cold %+v", i, replay, c.Result)
		}
	}
}

// TestSweepDedup: jobs with identical cache keys execute once per run;
// every duplicate slot receives a copy of the representative's result.
func TestSweepDedup(t *testing.T) {
	var runs atomic.Int64
	base := Job{Name: "a", Exp: "dup", Extra: 7}
	dup := base
	dup.Name = "b" // Name is not part of the key
	jobs := []Job{base, dup, base}

	res, err := Run(context.Background(), jobs, Options{
		Workers: 4,
		Run: func(ctx context.Context, j Job) (bench.Result, error) {
			runs.Add(1)
			return bench.Result{Name: "dup", Data: ffbpPoint{Cores: 7}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("runner executed %d times, want 1", got)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Index != i || r.Job.Name != jobs[i].Name {
			t.Errorf("job %d: got %q@%d", i, r.Job.Name, r.Index)
		}
		if !bytes.Equal(r.Raw, res[0].Raw) {
			t.Errorf("job %d: envelope differs from representative", i)
		}
	}
}

// TestSweepDedupMetrics: duplicate slots must pass through the same
// lifecycle counters as their representative, so queued reconciles with
// done+failed and a warm deduplicated sweep reports every slot cached.
func TestSweepDedupMetrics(t *testing.T) {
	base := Job{Name: "a", Exp: "dup", Extra: 7}
	dup, other := base, base
	dup.Name = "b" // Name is not part of the key
	other.Extra = 8
	jobs := []Job{base, dup, other, base}
	run := func(ctx context.Context, j Job) (bench.Result, error) {
		return bench.Result{Name: "dup", Data: ffbpPoint{Cores: j.Extra.(int)}}, nil
	}
	dir := t.TempDir()

	cold := obs.NewRegistry()
	if _, err := Run(context.Background(), jobs, Options{
		Workers: 4, CacheDir: dir, Metrics: cold, Run: run,
	}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"sweep.jobs.queued":   4, // every input slot, duplicates included
		"sweep.jobs.executed": 2, // one per distinct key
		"sweep.jobs.deduped":  2,
		"sweep.jobs.done":     4,
		"sweep.jobs.cached":   0,
		"sweep.jobs.failed":   0,
	} {
		if got := counter(cold, name); got != want {
			t.Errorf("cold %s = %v, want %v", name, got, want)
		}
	}

	warm := obs.NewRegistry()
	if _, err := Run(context.Background(), jobs, Options{
		Workers: 4, CacheDir: dir, Metrics: warm, Run: run,
	}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"sweep.jobs.queued":   4,
		"sweep.jobs.executed": 0,
		"sweep.jobs.deduped":  2,
		"sweep.jobs.done":     4,
		"sweep.jobs.cached":   4, // replayed representatives AND their duplicates
		"sweep.jobs.failed":   0,
	} {
		if got := counter(warm, name); got != want {
			t.Errorf("warm %s = %v, want %v", name, got, want)
		}
	}
}

// TestSweepDedupFailureMetrics: when a representative fails, its
// duplicate slots count as failed too, never as done.
func TestSweepDedupFailureMetrics(t *testing.T) {
	base := Job{Name: "a", Exp: "dup", Extra: 7}
	jobs := []Job{base, base}
	reg := obs.NewRegistry()
	res, err := Run(context.Background(), jobs, Options{
		Workers: 2, Metrics: reg,
		Run: func(ctx context.Context, j Job) (bench.Result, error) {
			panic("boom")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		var pe *PanicError
		if !errors.As(r.Err, &pe) {
			t.Errorf("job %d: err = %v, want PanicError", i, r.Err)
		}
	}
	if got := counter(reg, "sweep.jobs.failed"); got != 2 {
		t.Errorf("failed = %v, want 2 (representative + duplicate)", got)
	}
	if got := counter(reg, "sweep.jobs.done"); got != 0 {
		t.Errorf("done = %v, want 0", got)
	}
	if got := counter(reg, "sweep.jobs.deduped"); got != 1 {
		t.Errorf("deduped = %v, want 1", got)
	}
}

// TestSweepPanicRecovery: a panicking job surfaces as a PanicError in
// its slot; the remaining jobs complete normally.
func TestSweepPanicRecovery(t *testing.T) {
	jobs := []Job{{Name: "ok1", Exp: "p", Extra: 1}, {Name: "boom", Exp: "p", Extra: 2}, {Name: "ok2", Exp: "p", Extra: 3}}
	reg := obs.NewRegistry()
	res, err := Run(context.Background(), jobs, Options{
		Workers: 2, Metrics: reg,
		Run: func(ctx context.Context, j Job) (bench.Result, error) {
			if j.Name == "boom" {
				panic("diverged")
			}
			return bench.Result{Name: j.Name, Data: ffbpPoint{}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(res[1].Err, &pe) {
		t.Fatalf("job boom: err = %v, want PanicError", res[1].Err)
	}
	if pe.Job != "boom" || pe.Value != "diverged" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {%q %v stack:%d}", pe.Job, pe.Value, len(pe.Stack))
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Errorf("healthy jobs failed: %v, %v", res[0].Err, res[2].Err)
	}
	if got := counter(reg, "sweep.jobs.failed"); got != 1 {
		t.Errorf("failed counter = %v, want 1", got)
	}
}

// TestSweepTimeout: a job that overruns Options.Timeout surfaces as a
// TimeoutError whether it honours its context or ignores it entirely.
func TestSweepTimeout(t *testing.T) {
	jobs := []Job{{Name: "polite", Exp: "t", Extra: 1}, {Name: "stuck", Exp: "t", Extra: 2}}
	release := make(chan struct{})
	defer close(release)
	res, err := Run(context.Background(), jobs, Options{
		Workers: 2, Timeout: 50 * time.Millisecond,
		Run: func(ctx context.Context, j Job) (bench.Result, error) {
			if j.Name == "polite" {
				<-ctx.Done() // a kernel noticing the deadline at a checkpoint
				return bench.Result{}, ctx.Err()
			}
			<-release // a kernel that never checks its context
			return bench.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		var te *TimeoutError
		if !errors.As(r.Err, &te) {
			t.Errorf("job %d: err = %v, want TimeoutError", i, r.Err)
			continue
		}
		if te.After != 50*time.Millisecond {
			t.Errorf("job %d: After = %v", i, te.After)
		}
	}
}

// TestSweepCancel: a cancelled sweep context fails pending jobs with the
// context error instead of running them.
func TestSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs, run := testWorkload(t, 64, 61, 4)
	reg := obs.NewRegistry()
	res, err := Run(ctx, jobs, Options{Workers: 2, Metrics: reg, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	if got := counter(reg, "sweep.jobs.executed"); got != 0 {
		t.Errorf("executed = %v, want 0 after cancellation", got)
	}
}

// serialWorkload is testWorkload with a host-serial runner (sequential
// FFBP on one simulated core, no per-core goroutines), so each job
// occupies exactly one sweep worker and the engine's -j speedup is
// measurable on a multi-core host.
func serialWorkload(tb testing.TB, pulses, bins, n int) ([]Job, RunFunc) {
	tb.Helper()
	jobs, _ := testWorkload(tb, pulses, bins, n)
	p := jobs[0].Config.Params
	data := sar.Simulate(p, sar.SixTargetScene(p), nil)
	run := func(ctx context.Context, j Job) (bench.Result, error) {
		if err := ctx.Err(); err != nil {
			return bench.Result{}, err
		}
		chip := emu.New(emu.E16G3())
		if _, _, err := kernels.SeqFFBP(chip.Cores[0], chip.Ext(), data, j.Config.Params, j.Config.Box); err != nil {
			return bench.Result{}, err
		}
		return bench.Result{
			Name: j.Name, Title: "test FFBP point",
			Pulses: pulses, Bins: bins,
			Data: ffbpPoint{Cores: 1, Seconds: chip.Time()},
		}, nil
	}
	return jobs, run
}

// TestSweepThroughput measures the engine's job throughput (1 vs 8
// workers over a 16-job cold sweep of host-serial jobs) and, when
// SWEEPBENCH_OUT names a directory, records it as a BENCH_sweep.json
// envelope — the `make sweepbench` target. Without the variable the
// measurement is skipped to keep the regular test suite fast. The
// speedup approaches min(8, GOMAXPROCS) on a multi-core host and ~1x on
// a single-CPU one, so it is recorded, not asserted.
func TestSweepThroughput(t *testing.T) {
	out := os.Getenv("SWEEPBENCH_OUT")
	if out == "" {
		t.Skip("SWEEPBENCH_OUT not set")
	}
	jobs, run := serialWorkload(t, 128, 121, 16)

	measure := func(workers int) time.Duration {
		start := time.Now()
		res, err := Run(context.Background(), jobs, Options{Workers: workers, Run: run})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("job %d: %v", i, r.Err)
			}
		}
		return time.Since(start)
	}

	t1 := measure(1)
	t8 := measure(8)
	speedup := t1.Seconds() / t8.Seconds()
	jobsPerSec := float64(len(jobs)) / t8.Seconds()
	t.Logf("16 jobs: 1 worker %v, 8 workers %v (%.2fx, %.1f jobs/s)", t1, t8, speedup, jobsPerSec)

	env := bench.Result{
		Name: "sweep", Title: "Sweep engine throughput",
		Pulses: 128, Bins: 121,
		Data: struct {
			Jobs        int     `json:"jobs"`
			HostCPUs    int     `json:"host_cpus"`
			SecondsJ1   float64 `json:"seconds_j1"`
			SecondsJ8   float64 `json:"seconds_j8"`
			Speedup     float64 `json:"speedup"`
			JobsPerSec  float64 `json:"jobs_per_sec"`
			RaceEnabled bool    `json:"race_enabled"`
		}{len(jobs), runtime.GOMAXPROCS(0), t1.Seconds(), t8.Seconds(), speedup, jobsPerSec, raceEnabled},
	}
	b, err := bench.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	path, err := bench.WriteFileRaw(out, env.Name, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
