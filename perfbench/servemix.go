package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"sarmany/internal/bench"
	"sarmany/internal/report"
	"sarmany/internal/serve"
	"sarmany/internal/sweep"
)

// serveExps are serve-mix's experiments: small-scale runs whose
// envelopes are deterministic. base and kernels are left out (README.md
// says why).
var serveExps = []string{"t1", "fig7", "pipes", "bw", "chaos"}

// serveRate is serve-mix's offered load in jobs per second, one the
// server keeps up with on two cores without a growing backlog.
const serveRate = 8.0

// The three job classes of the mix.
const (
	classFresh  = iota // a new tag: executes and writes the cache
	classRepeat        // an earlier spec again: attaches by single-flight
	classCached        // a spec an earlier server cached during set-up
)

var classNames = [3]string{"fresh", "repeat", "cached"}

// serveJob is one scheduled submission.
type serveJob struct {
	due   time.Duration // since the start of the load
	class int
	spec  serve.JobSpec
}

// serveSchedule generates serve-mix's open-loop load: n arrivals drawn
// uniformly over span (a Poisson process conditioned on its count). The
// multiset of classes and experiments is fixed — a third of each class,
// experiments in turn — and only its order is seeded, so every seed
// offers the same work. A repeat copies a random earlier fresh spec.
func serveSchedule(n int, span time.Duration, seed int64) []serveJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]serveJob, n)
	for i := range jobs {
		jobs[i].class = i % 3
		jobs[i].spec.Exp = serveExps[(i/3)%len(serveExps)]
	}
	rng.Shuffle(n, func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	for i := range jobs { // the first job is fresh, so every repeat has a spec to repeat
		if jobs[i].class == classFresh {
			jobs[0], jobs[i] = jobs[i], jobs[0]
			break
		}
	}
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * span.Seconds()
	}
	sort.Float64s(dues)
	var fresh []int
	for i := range jobs {
		j := &jobs[i]
		j.due = time.Duration(dues[i] * float64(time.Second))
		switch j.class {
		case classFresh:
			j.spec.Tag = fmt.Sprintf("fresh-%d-%d", seed, i)
			fresh = append(fresh, i)
		case classCached:
			j.spec.Tag = fmt.Sprintf("cached-%d-%d", seed, i)
		case classRepeat:
			j.spec = jobs[fresh[rng.Intn(len(fresh))]].spec
		}
	}
	return jobs
}

// openLoop sends request i at start+due[i], whatever happened to earlier
// requests, from senders goroutines fed in due order, and returns once
// every send has returned. A sender still busy with an earlier request
// delays the next one; timing latency from the due time charges that
// delay to the requests queued behind it.
func openLoop(start time.Time, due []time.Duration, senders int, send func(i int)) {
	ch := make(chan int, len(due)) // one slot per send: dispatch never waits
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				send(i)
			}
		}()
	}
	for i, d := range due {
		time.Sleep(time.Until(start.Add(d)))
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// serveInput is serve-mix's set-up.
type serveInput struct {
	dir  string            // scratch: the result cache and the run ledger
	refs map[string][]byte // each experiment's envelope, as bench.Compute makes it
}

// serveOptions are sarserve's defaults, with the cache and (when ledger
// is set) the run ledger under dir.
func serveOptions(dir string, ledger bool) serve.Options {
	opt := serve.Options{
		Workers:     runtime.GOMAXPROCS(0),
		CacheDir:    filepath.Join(dir, "cache"),
		BatchSize:   8,
		MaxWait:     25 * time.Millisecond,
		QueueLimit:  256,
		JobTimeout:  5 * time.Minute,
		TraceSample: 1,
	}
	if ledger {
		opt.LedgerDir = filepath.Join(dir, "ledger")
	}
	return opt
}

func serveSetup(cfg config, jobs []serveJob) (*serveInput, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	in := &serveInput{dir: dir, refs: map[string][]byte{}}
	ctx := context.Background()
	results := map[string]bench.Result{}
	for _, e := range serveExps {
		var res bench.Result
		cfg.tr.timed("bench.compute."+e, -1, -1, func() { res, err = bench.Compute(ctx, e, report.Small(), "") })
		if err == nil {
			results[e] = res
			in.refs[e], err = bench.Marshal(res)
		}
		if err != nil {
			return in, fmt.Errorf("reference %s: %w", e, err)
		}
	}
	// An earlier server writes the cached-class specs into the cache. It
	// replays the reference results instead of recomputing them, so the
	// cache fill costs set-up little; the measured server computes.
	opt := serveOptions(dir, false)
	opt.Run = func(_ context.Context, j sweep.Job) (bench.Result, error) { return results[j.Exp], nil }
	s0 := serve.NewServer(opt)
	var ids []string
	for _, j := range jobs {
		if j.class != classCached {
			continue
		}
		info, err := s0.Submit(ctx, j.spec)
		if err != nil {
			return in, fmt.Errorf("cache fill: %w", err)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		info, err := s0.WaitDone(ctx, id)
		if err == nil && info.Status != serve.StatusDone {
			err = fmt.Errorf("job %s %s: %s", id, info.Status, info.Error)
		}
		if err != nil {
			return in, fmt.Errorf("cache fill: %w", err)
		}
	}
	return in, s0.Drain(ctx)
}

// jobRecord is what the generator saw of one submission.
type jobRecord struct {
	sent, admitted, done time.Time
	info                 serve.JobInfo
	err                  error
}

// postJob submits spec over HTTP and returns the admitted job's ID.
func postJob(client *http.Client, url string, spec serve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var info serve.JobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	_, _ = io.Copy(io.Discard, resp.Body) // drain for keep-alive reuse
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/jobs: %s", resp.Status)
	}
	return info.ID, err
}

var serveWorkload = workload{
	name:   "serve-mix",
	opSpan: "job",
	layers: serveLayers(),
	run:    runServe,
}

func serveLayers() []layerMetric {
	out := []layerMetric{
		{"serve.admit_p50_s", "s"}, {"serve.admit_tail_s", "s"}, {"serve.exec_p50_s", "s"},
		{"serve.queue_tail_s", "s"}, {"serve.batch_jobs", "jobs"}, {"serve.dedup_ratio", "ratio"},
		{"sweep.cache_hit_ratio", "ratio"}, {"serve.rejected", "count"}, {"gen.lag_tail_s", "s"},
	}
	for _, c := range classNames {
		out = append(out, layerMetric{"serve." + c + "_p50_s", "s"})
	}
	for _, e := range serveExps {
		out = append(out, layerMetric{"bench.compute_s." + e, "s"})
	}
	return out
}

// runServe is serve-mix: an open-loop job mix submitted over loopback
// HTTP to an in-process server. Each job's latency runs from its due
// time to its completion, observed with Server.WaitDone.
func runServe(cfg config) (*outcome, error) {
	n := max(12, int(math.Round(serveRate*cfg.seconds)))
	jobs := serveSchedule(n, time.Duration(float64(n)/serveRate*float64(time.Second)), cfg.seed)
	o := &outcome{attempted: n}
	var in *serveInput
	var err error
	in, err = setup(cfg, o, func() (*serveInput, error) {
		if in != nil {
			os.RemoveAll(in.dir)
		}
		in, err = serveSetup(cfg, jobs)
		return in, err
	})
	if in != nil {
		defer os.RemoveAll(in.dir)
	}
	if err != nil {
		return nil, err
	}

	srv := serve.NewServer(serveOptions(in.dir, true))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	senders := runtime.GOMAXPROCS(0)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders}}
	url := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds+60)*time.Second)
	defer cancel()
	recs := make([]jobRecord, n)
	due := make([]time.Duration, n)
	for i, j := range jobs {
		due[i] = j.due
	}
	var waits sync.WaitGroup
	runtime.GC() // the load starts from a collected heap, as measure's operations do
	w := startWatch()
	start := w.t
	openLoop(start, due, senders, func(i int) {
		r := &recs[i]
		r.sent = time.Now()
		id, err := postJob(client, url, jobs[i].spec)
		r.admitted = time.Now()
		if err != nil {
			r.err = err
			return
		}
		waits.Add(1)
		go func() {
			defer waits.Done()
			r.info, r.err = srv.WaitDone(ctx, id)
			r.done = time.Now()
		}()
	})
	waits.Wait()
	_, o.allocB = w.stop()

	client.CloseIdleConnections()
	if err := hs.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-served; err != http.ErrServerClosed {
		return nil, err
	}
	if err := srv.Drain(ctx); err != nil {
		return nil, err
	}

	var last time.Time
	for i := range recs {
		r := &recs[i]
		if err := checkJob(srv, in, jobs[i], r); err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "job %d (%s %s) failed: %v\n", i, classNames[jobs[i].class], jobs[i].spec.Exp, err)
			o.opS = append(o.opS, math.Inf(1))
			continue
		}
		o.opS = append(o.opS, r.done.Sub(start.Add(jobs[i].due)).Seconds())
		o.work++
		if r.done.After(last) {
			last = r.done
		}
	}
	o.workS = last.Sub(start).Seconds()
	if cfg.tr != nil {
		o.layers = serveLayerValues(cfg.tr, srv, jobs, recs, start)
	}
	return o, nil
}

// checkJob checks one job's outcome: it completed, its envelope is
// byte-identical to the reference, and it came from where its class
// says (the cache for a cached spec, an execution for a fresh one).
func checkJob(srv *serve.Server, in *serveInput, j serveJob, r *jobRecord) error {
	if r.err != nil {
		return r.err
	}
	raw, info, ok := srv.Result(r.info.ID)
	switch {
	case !ok || info.Status != serve.StatusDone:
		return fmt.Errorf("status %s: %s", info.Status, info.Error)
	case !bytes.Equal(raw, in.refs[j.spec.Exp]):
		return fmt.Errorf("envelope differs from bench.Compute's")
	case j.class == classCached && !info.Cached:
		return fmt.Errorf("a cached spec was executed")
	case j.class == classFresh && info.Cached:
		return fmt.Errorf("a fresh spec was read from the cache")
	}
	return nil
}

// serveLayerValues records each job's spans and derives serve-mix's
// per-layer metrics from them and from the server's registry.
func serveLayerValues(tr *tracer, srv *serve.Server, jobs []serveJob, recs []jobRecord, start time.Time) map[string]float64 {
	var admit, lag, exec, queue []float64
	var byClass [3][]float64
	repeats := 0
	for i, r := range recs {
		due := start.Add(jobs[i].due)
		lag = append(lag, r.sent.Sub(due).Seconds())
		admit = append(admit, r.admitted.Sub(r.sent).Seconds())
		if jobs[i].class == classRepeat {
			repeats++
		}
		if r.err != nil {
			continue
		}
		op := tr.add("job", -1, i, due, r.done)
		tr.add("gen.lag", op, i, due, r.sent)
		tr.add("serve.admit", op, i, r.sent, r.admitted)
		tr.add("serve.complete", op, i, r.admitted, r.done)
		lat := r.done.Sub(due).Seconds()
		byClass[jobs[i].class] = append(byClass[jobs[i].class], lat)
		if jobs[i].class != classRepeat {
			exec = append(exec, r.info.DurationSeconds)
			queue = append(queue, lat-r.info.DurationSeconds)
		}
	}
	snap := srv.Registry().Snapshot()
	batch, _ := snap.Get("serve.batch.jobs")
	hits, executed := snap.Value("sweep.jobs.cached"), snap.Value("sweep.jobs.executed")
	m := map[string]float64{
		"serve.admit_p50_s":     median(admit),
		"serve.exec_p50_s":      median(exec),
		"serve.batch_jobs":      batch.Mean,
		"serve.dedup_ratio":     snap.Value("serve.jobs.deduplicated") / float64(repeats),
		"sweep.cache_hit_ratio": hits / (hits + executed),
		"serve.rejected": snap.Value("serve.jobs.rejected.quota") + snap.Value("serve.jobs.rejected.queue") +
			snap.Value("serve.jobs.rejected.draining"),
	}
	_, m["serve.admit_tail_s"], _ = tail(admit)
	_, m["serve.queue_tail_s"], _ = tail(queue)
	_, m["gen.lag_tail_s"], _ = tail(lag)
	for c, name := range classNames {
		m["serve."+name+"_p50_s"] = median(byClass[c])
	}
	for _, e := range serveExps {
		m["bench.compute_s."+e] = median(tr.durations("bench.compute." + e))
	}
	return m
}
