// Package sweep is the concurrent experiment runner behind cmd/benchtab
// and the parameter-sweep examples. A sweep is a slice of independent
// simulation jobs — each a report.Config plus a workload selector — that
// the engine fans out across a bounded worker pool and collects back in
// deterministic input order, regardless of completion order.
//
// Three properties make it the layer batch experiments sit on:
//
//   - A content-addressed result cache: each job is keyed by a SHA-256
//     hash of its canonicalized config, workload selector and a
//     code-version salt. Completed bench.Result envelopes persist under
//     Options.CacheDir, so re-running a sweep only simulates the
//     configurations that changed — a warm rerun replays byte-identical
//     envelopes with zero chip simulations.
//   - Fault isolation: each job runs with panic recovery and an optional
//     per-job timeout, so one diverging simulation surfaces as a typed
//     error (PanicError, TimeoutError) in its result slot instead of
//     crashing or hanging the whole sweep.
//   - Progress metrics: job lifecycle counters and a per-job duration
//     histogram feed an obs.Registry (sweep.jobs.* / sweep.job.seconds),
//     so -metrics output covers sweeps like any other simulation.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sarmany/internal/bench"
	"sarmany/internal/obs"
	"sarmany/internal/report"
)

// Salt is the code-version salt mixed into every cache key. Bump
// it whenever kernels or machine models change modeled results, so stale
// cached envelopes from older code cannot be replayed as current.
const Salt = "sarmany-sweep-v1"

// Job is one simulation of a sweep: a workload selector (a cmd/benchtab
// experiment key for the default runner, or any label a custom
// Options.Run interprets) applied to one experiment configuration.
type Job struct {
	// Name labels the job in errors and progress output. It does not
	// enter the cache key, so renaming a job does not invalidate it.
	Name string
	// Exp selects the workload (bench.Keys lists the built-in selectors).
	Exp string
	// Config is the experiment configuration the workload runs at.
	Config report.Config
	// Extra carries additional workload parameters for custom runners
	// (e.g. a core count or a candidate shift). It must be
	// JSON-marshalable; it is canonicalized into the cache key.
	Extra any
}

// RunFunc executes one job and returns its result envelope.
type RunFunc func(ctx context.Context, j Job) (bench.Result, error)

// Options configures a sweep run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheDir enables the content-addressed result cache when non-empty.
	CacheDir string
	// Timeout bounds each job's run time; <= 0 means no per-job limit.
	// On expiry the job's context is cancelled and the job surfaces a
	// TimeoutError; a simulation that never reaches a context checkpoint
	// is abandoned (its goroutine is orphaned), not crashed into.
	Timeout time.Duration
	// Metrics receives job lifecycle counters and the per-job duration
	// histogram when non-nil.
	Metrics *obs.Registry
	// Run overrides the job runner. Nil means the built-in bench runner:
	// bench.Compute(ctx, j.Exp, j.Config, "") — every cmd/benchtab
	// experiment key works out of the box.
	Run RunFunc
	// JobContext supplies the context job i (by input index) runs on in
	// place of Run's ctx; derive it from ctx, so that cancelling the
	// sweep still reaches the job. A job whose context has ended fails
	// with the context's error: before its runner starts unless the
	// cache holds its result, and by abandoning a runner still stuck
	// when it ends. A request-trace span on the context
	// (obs.ContextWithSpan) parents the job's cache-lookup and execute
	// spans, so a caller that traces requests (internal/serve) sees them
	// as children of its own; the execute span rides the runner's
	// context, so custom runners can hang deeper children off it. Nil
	// runs every job on ctx.
	JobContext func(i int) context.Context
}

// JobResult is one job's outcome, at the same index as its job.
type JobResult struct {
	Job   Job
	Index int
	// Result is the experiment envelope. For a fresh run Data holds the
	// concrete point type; for a cache hit it is a json.RawMessage
	// (bench.PrintResult and bench.DecodeData handle both).
	Result bench.Result
	// Raw is the canonical envelope encoding (bench.Marshal form). Fresh
	// and cached runs of the same job produce byte-identical Raw.
	Raw []byte
	// Cached reports whether the envelope was replayed from the cache.
	Cached bool
	// Duration is the job's wall-clock run time (0 for cache hits).
	Duration time.Duration
	// Err is the job's failure, if any: a PanicError, a TimeoutError, a
	// context error, or whatever the runner returned.
	Err error
}

// PanicError reports a job whose runner panicked; the sweep recovered it
// and carried on with the remaining jobs.
type PanicError struct {
	Job   string
	Value any
	Stack []byte
}

// Error names the job and the value it panicked with.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: job %q panicked: %v", e.Job, e.Value)
}

// TimeoutError reports a job that exceeded Options.Timeout.
type TimeoutError struct {
	Job   string
	After time.Duration
}

// Error names the job and the timeout it exceeded.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("sweep: job %q timed out after %v", e.Job, e.After)
}

// metrics bundles the registry instruments so a nil registry costs one
// branch per update.
type metrics struct {
	queued, done, cached, failed, executed, deduped *obs.Counter
	running                                         *obs.Gauge
	seconds                                         *obs.Histogram
	mu                                              sync.Mutex
	nrunning                                        int
}

func newMetrics(r *obs.Registry) *metrics {
	if r == nil {
		return nil
	}
	return &metrics{
		queued:   r.Counter("sweep.jobs.queued"),
		done:     r.Counter("sweep.jobs.done"),
		cached:   r.Counter("sweep.jobs.cached"),
		failed:   r.Counter("sweep.jobs.failed"),
		executed: r.Counter("sweep.jobs.executed"),
		deduped:  r.Counter("sweep.jobs.deduped"),
		running:  r.Gauge("sweep.jobs.running"),
		seconds:  r.Histogram("sweep.job.seconds"),
	}
}

func (m *metrics) addRunning(d int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.nrunning += d
	m.running.Set(float64(m.nrunning))
	m.mu.Unlock()
}

// Run executes the jobs across the worker pool and returns their results
// in input order. Job failures are reported per slot in JobResult.Err;
// the returned error is reserved for sweep-level problems (an unusable
// cache directory). Jobs with identical cache keys are deduplicated
// within the run: one representative executes and every duplicate slot
// receives a copy of its result.
func Run(ctx context.Context, jobs []Job, opt Options) ([]JobResult, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	runner := opt.Run
	if runner == nil {
		runner = func(ctx context.Context, j Job) (bench.Result, error) {
			return bench.Compute(ctx, j.Exp, j.Config, "")
		}
	}
	var cache *diskCache
	if opt.CacheDir != "" {
		c, err := openCache(opt.CacheDir)
		if err != nil {
			return nil, err
		}
		cache = c
	}
	m := newMetrics(opt.Metrics)

	results := make([]JobResult, len(jobs))
	// Group duplicate jobs by cache key: the first index of each key is
	// its representative; the rest copy its result afterwards.
	reps := make([]int, 0, len(jobs))
	dup := make(map[string][]int)
	for i, j := range jobs {
		results[i] = JobResult{Job: j, Index: i}
		key, err := Key(j)
		if err != nil {
			// Unhashable Extra: run the job uncached and undeduplicated.
			reps = append(reps, i)
			if m != nil {
				m.queued.Add(1)
			}
			continue
		}
		if idxs, seen := dup[key]; seen {
			dup[key] = append(idxs, i)
			if m != nil {
				m.queued.Add(1)
			}
			continue
		}
		dup[key] = []int{i}
		reps = append(reps, i)
		if m != nil {
			m.queued.Add(1)
		}
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				jctx := ctx
				if opt.JobContext != nil {
					jctx = opt.JobContext(i)
				}
				runOne(jctx, &results[i], runner, cache, opt.Timeout, m)
			}
		}()
	}
	for _, i := range reps {
		work <- i
	}
	close(work)
	wg.Wait()

	// Fan representative results out to duplicate slots. Each duplicate
	// passes through the same lifecycle counters as its representative
	// (done or failed, cached when the envelope was replayed), plus a
	// deduped count — so sweep.jobs.queued always reconciles with
	// done+failed, and warm-cache reruns of deduplicated sweeps report
	// every slot in sweep.jobs.cached.
	for _, idxs := range dup {
		if len(idxs) < 2 {
			continue
		}
		rep := results[idxs[0]]
		for _, i := range idxs[1:] {
			r := rep
			r.Job, r.Index = jobs[i], i
			results[i] = r
			if m == nil {
				continue
			}
			m.deduped.Add(1)
			if r.Err != nil {
				m.failed.Add(1)
				continue
			}
			m.done.Add(1)
			if r.Cached {
				m.cached.Add(1)
			}
		}
	}
	return results, nil
}

// runOne executes (or replays) one job into its result slot on the
// job's context ctx. The request-trace span ctx carries, if any, is the
// parent of the job's cache-lookup and execute spans.
func runOne(ctx context.Context, res *JobResult, runner RunFunc, cache *diskCache, timeout time.Duration, m *metrics) {
	parent := obs.SpanFromContext(ctx)
	key, keyErr := Key(res.Job)
	if cache != nil && keyErr == nil {
		ls := parent.Child("sweep.cache.lookup")
		raw, env, ok := cache.load(key)
		ls.SetAttr("hit", strconv.FormatBool(ok))
		ls.End()
		if ok {
			res.Raw, res.Result, res.Cached = raw, env, true
			if m != nil {
				m.cached.Add(1)
				m.done.Add(1)
			}
			return
		}
	}

	if err := ctx.Err(); err != nil {
		res.Err = err
		if m != nil {
			m.failed.Add(1)
		}
		return
	}

	jctx, cancel := ctx, func() {}
	if timeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	// The execute span rides the runner context so deeper layers
	// (bench, custom runners) can nest their own children under it.
	es := parent.Child("sweep.execute")
	if es != nil {
		jctx = obs.ContextWithSpan(jctx, es)
	}

	m.addRunning(1)
	if m != nil {
		m.executed.Add(1)
	}
	start := time.Now()

	type outcome struct {
		env bench.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				stack := make([]byte, 16<<10)
				stack = stack[:runtime.Stack(stack, false)]
				ch <- outcome{err: &PanicError{Job: res.Job.Name, Value: v, Stack: stack}}
			}
		}()
		env, err := runner(jctx, res.Job)
		ch <- outcome{env: env, err: err}
	}()

	var out outcome
	select {
	case out = <-ch:
	case <-jctx.Done():
		// The runner is stuck past its deadline (or the job's context
		// ended); abandon its goroutine rather than hang the pool.
		out = outcome{err: jctx.Err()}
	}
	if out.err != nil && timeout > 0 && ctx.Err() == nil && jctx.Err() == context.DeadlineExceeded {
		// Timeout expired, not the job's own context.
		out.err = &TimeoutError{Job: res.Job.Name, After: timeout}
	}

	res.Duration = time.Since(start)
	m.addRunning(-1)
	if m != nil {
		m.seconds.Observe(res.Duration.Seconds())
	}
	if out.err != nil {
		es.SetAttr("error", out.err.Error())
	}
	es.End()

	if out.err != nil {
		res.Err = out.err
		if m != nil {
			m.failed.Add(1)
		}
		return
	}

	res.Result = out.env
	raw, err := bench.Marshal(out.env)
	if err != nil {
		res.Err = fmt.Errorf("sweep: job %q: encode result: %w", res.Job.Name, err)
		if m != nil {
			m.failed.Add(1)
		}
		return
	}
	res.Raw = raw
	if cache != nil && keyErr == nil {
		// Best-effort: a failed store only costs a future cache miss.
		cache.store(key, raw)
	}
	if m != nil {
		m.done.Add(1)
	}
}
