// Package serve is the SAR-as-a-service layer: a long-running job
// server that accepts image-formation and sweep jobs over HTTP/JSON,
// coalesces them through a bounded batcher (batch-size + max-wait flush,
// per-request result channels), and executes them on the
// internal/sweep pool with the content-addressed result cache as a
// shared store — duplicate submissions are single-flighted across
// tenants and replay byte-identical envelopes.
//
// Admission control happens in three stages, each with a typed error
// and an HTTP backpressure mapping:
//
//   - draining:   *DrainingError  -> 503 + Retry-After
//   - quota:      *QuotaError     -> 429 + Retry-After (per-tenant token bucket)
//   - queue full: *QueueFullError -> 429 + Retry-After (bounded batcher queue)
//
// Job identifiers are content addresses (a prefix of the sweep cache
// key), so resubmitting the same job is idempotent: the second POST
// attaches to the first record, and a completed job's result serves
// straight from memory or the shared cache. Request deadlines propagate
// via context.Context into the executing kernels; graceful drain stops
// admission, flushes in-flight batches and appends a final ledger
// entry. Every completed job is recorded in the internal/telemetry run
// ledger, and the obs registry behind /metrics carries serve.* and
// sweep.* series for scrape tooling.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"time"

	"sarmany/internal/bench"
	"sarmany/internal/obs"
	"sarmany/internal/report"
	"sarmany/internal/sweep"
	"sarmany/internal/telemetry"
)

// JobSpec is the POST /v1/jobs request body: which experiment to run, at
// which scale, for which tenant.
type JobSpec struct {
	// Exp selects the workload: any cmd/benchtab experiment key, as
	// bench.Keys lists them. The result is that experiment's envelope,
	// named by its envelope name rather than its key.
	Exp string `json:"exp"`
	// Scale is "small" (reduced, default) or "paper" (full paper scale).
	Scale string `json:"scale,omitempty"`
	// Tenant names the quota bucket this job draws from ("" = "default").
	Tenant string `json:"tenant,omitempty"`
	// Tag optionally distinguishes otherwise-identical jobs: it enters
	// the job's content address, so load generators can control how much
	// of their traffic deduplicates.
	Tag string `json:"tag,omitempty"`
	// TimeoutSeconds bounds the job's execution (0 = the server default).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// config resolves the spec's scale to an experiment configuration.
func (s JobSpec) config() (report.Config, error) {
	switch s.Scale {
	case "", "small":
		return report.Small(), nil
	case "paper":
		return report.Default(), nil
	}
	return report.Config{}, &SpecError{Msg: fmt.Sprintf("unknown scale %q (want \"small\" or \"paper\")", s.Scale)}
}

// SpecError is the typed rejection for a malformed job specification —
// the HTTP layer maps it to 400 Bad Request.
type SpecError struct {
	// Msg says what is wrong with the spec.
	Msg string
}

// Error describes what is wrong with the spec.
func (e *SpecError) Error() string { return "serve: bad job spec: " + e.Msg }

// Options configures a Server.
type Options struct {
	// Workers bounds the sweep pool each batch executes on (<= 0 =
	// GOMAXPROCS).
	Workers int
	// CacheDir is the shared content-addressed result store; empty
	// disables caching (every job simulates).
	CacheDir string
	// BatchSize and MaxWait configure the batcher flush policy (see
	// BatcherOptions).
	BatchSize int
	MaxWait   time.Duration
	// QueueLimit bounds queued+executing requests (default 256).
	QueueLimit int
	// Quota is the per-tenant admission budget (zero = unlimited).
	Quota QuotaConfig
	// JobTimeout is the default per-job execution bound applied when a
	// spec carries no timeout_seconds (0 = none).
	JobTimeout time.Duration
	// LedgerDir receives one run-ledger entry per completed job plus the
	// final drain summary ("" disables recording).
	LedgerDir string
	// Metrics receives serve.* and sweep.* series (nil = a private
	// registry; Server.Registry exposes it either way).
	Metrics *obs.Registry
	// Run overrides the job runner (nil = bench.Compute on the spec's
	// experiment). Tests use this to serve synthetic workloads.
	Run sweep.RunFunc
	// TraceSample is the head-based sampling probability for requests
	// arriving without a traceparent header: 1 traces every request, 0
	// (the zero value) disables request tracing entirely. An inbound
	// W3C traceparent header overrides the coin flip — its sampled flag
	// decides. Every request gets a trace ID either way; sampling only
	// controls whether a span tree is collected for it.
	TraceSample float64
	// SlowRequest logs a warning with per-stage timings for any request
	// whose end-to-end latency exceeds it (0 disables the slow log).
	SlowRequest time.Duration
	// Log receives the server's structured records — admission
	// rejections, dedup attaches, completions, the slow-request log —
	// each stamped with trace_id/tenant/job_id. Nil discards them.
	Log *slog.Logger
}

// serveMetrics bundles the server's registry instruments.
type serveMetrics struct {
	accepted, completed, failed, cacheHits     *obs.Counter
	rejQuota, rejQueue, rejDraining, dupAttach *obs.Counter
	queueDepth                                 *obs.Gauge
	batchJobs, jobSeconds, requestSeconds      *obs.Histogram
}

// Server is the batching job server. Create one with NewServer, mount
// Handler on an http.Server, and Drain it on shutdown.
type Server struct {
	opt     Options
	base    context.Context
	stop    context.CancelFunc
	batcher *Batcher
	store   *store
	quotas  *quotas
	reg     *obs.Registry
	m       serveMetrics
	started time.Time
	run     sweep.RunFunc
	log     *slog.Logger

	drainCh chan struct{} // closed when Drain begins
}

// NewServer returns a ready-to-serve job server.
func NewServer(opt Options) *Server {
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	run := opt.Run
	if run == nil {
		run = func(ctx context.Context, j sweep.Job) (bench.Result, error) {
			return bench.Compute(ctx, j.Exp, j.Config, "")
		}
	}
	lg := opt.Log
	if lg == nil {
		lg = slog.New(slog.DiscardHandler)
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		opt:     opt,
		base:    base,
		stop:    stop,
		store:   newStore(),
		quotas:  newQuotas(opt.Quota),
		reg:     reg,
		started: time.Now(),
		run:     run,
		log:     lg,
		drainCh: make(chan struct{}),
		m: serveMetrics{
			accepted:       reg.Counter("serve.jobs.accepted"),
			completed:      reg.Counter("serve.jobs.completed"),
			failed:         reg.Counter("serve.jobs.failed"),
			cacheHits:      reg.Counter("serve.jobs.cachehits"),
			rejQuota:       reg.Counter("serve.jobs.rejected.quota"),
			rejQueue:       reg.Counter("serve.jobs.rejected.queue"),
			rejDraining:    reg.Counter("serve.jobs.rejected.draining"),
			dupAttach:      reg.Counter("serve.jobs.deduplicated"),
			queueDepth:     reg.Gauge("serve.queue.depth"),
			batchJobs:      reg.Histogram("serve.batch.jobs"),
			jobSeconds:     reg.Histogram("serve.job.seconds"),
			requestSeconds: reg.Histogram("serve.request.seconds"),
		},
	}
	s.batcher = NewBatcher(BatcherOptions{
		BatchSize:  opt.BatchSize,
		MaxWait:    opt.MaxWait,
		QueueLimit: opt.QueueLimit,
		RetryAfter: s.retryAfterHint,
		Exec:       s.execBatch,
	})
	return s
}

// Registry exposes the server's metric registry (the /metrics and
// /debug/vars source).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// coldRetryAfter is the backoff hint when the p50 projection has
// nothing to stand on: a cold server's serve.job.seconds histogram has
// no samples, so its median is NaN (and an all-subsecond history can
// round to 0). Both must map to a short, sane default — never a
// Retry-After of 0, which clients read as "hammer immediately".
const coldRetryAfter = time.Second

// retryAfterHint estimates how long a rejected client should back off:
// the time for the current queue to clear at the observed median job
// rate, clamped to [coldRetryAfter, 60s]. With no latency history (or
// an empty queue) it suggests coldRetryAfter.
func (s *Server) retryAfterHint() time.Duration {
	depth := s.batcher.Depth()
	p50 := s.m.jobSeconds.Quantile(0.5)
	workers := s.opt.Workers
	if workers <= 0 {
		workers = 1
	}
	if math.IsNaN(p50) || p50 <= 0 || depth == 0 {
		return coldRetryAfter
	}
	sec := math.Ceil(float64(depth) * p50 / float64(workers))
	if d := time.Duration(math.Min(math.Max(sec, 1), 60)) * time.Second; d > coldRetryAfter {
		return d
	}
	return coldRetryAfter
}

// JobID computes a spec's content-addressed identifier without
// submitting it: a 16-hex-character prefix of the sweep cache key over
// the spec's experiment, configuration and tag.
func (s *Server) JobID(spec JobSpec) (string, sweep.Job, error) {
	cfg, err := spec.config()
	if err != nil {
		return "", sweep.Job{}, err
	}
	job := sweep.Job{Name: spec.Exp, Exp: spec.Exp, Config: cfg}
	if spec.Tag != "" {
		job.Extra = map[string]string{"tag": spec.Tag}
	}
	key, err := sweep.Key(job)
	if err != nil {
		return "", sweep.Job{}, err
	}
	return key[:16], job, nil
}

// traceIDKey carries the request's assigned trace identifier through
// the submission context even when the request is unsampled (no
// *obs.ReqTrace) — logs and records still want the correlation key.
type traceIDKey struct{}

// ContextWithTraceID returns a context carrying an externally assigned
// trace identifier for the submission (the HTTP layer sets it from the
// inbound traceparent header or a fresh random ID). Submit mints its
// own when the context carries none.
func ContextWithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// submitTraceID resolves the submission's trace identity from ctx: an
// explicit ID, else the sampled trace's, else a fresh one.
func submitTraceID(ctx context.Context, tr *obs.ReqTrace) string {
	if id, _ := ctx.Value(traceIDKey{}).(string); id != "" {
		return id
	}
	if tr != nil {
		return tr.TraceID().String()
	}
	return obs.NewTraceID().String()
}

// Submit runs the admission pipeline for one spec: draining check,
// tenant quota, content-address lookup (an existing live record attaches
// without executing), then the bounded batcher. The returned JobInfo is
// the record's current state; rec.done (via WaitDone) resolves when the
// job completes.
//
// ctx carries the request's trace identity only (see ContextWithTraceID
// and obs.ContextWithTrace): a sampled request records admission,
// queue.wait, singleflight.join, execute and ledger.write stage spans
// into its trace. Execution itself runs on the server's own context —
// cancelling ctx does not cancel the job (shared work survives a
// submitter's disconnect).
func (s *Server) Submit(ctx context.Context, spec JobSpec) (JobInfo, error) {
	tr := obs.TraceFromContext(ctx)
	tid := submitTraceID(ctx, tr)
	tenant := tenantOf(spec)
	root := tr.StartSpan("request")
	root.SetAttr("exp", spec.Exp)
	root.SetAttr("tenant", tenant)
	adm := root.Child("admission")
	reject := func(reason string, err error) (JobInfo, error) {
		adm.SetAttr("rejected", reason)
		adm.End()
		root.SetAttr("outcome", "rejected")
		root.End()
		s.log.Info("job rejected",
			"trace_id", tid, "tenant", tenant, "reason", reason, "err", err.Error())
		return JobInfo{}, err
	}
	if s.Draining() {
		s.m.rejDraining.Add(1)
		return reject("draining", &DrainingError{})
	}
	if _, ok := bench.Title(spec.Exp); !ok {
		return reject("spec", &SpecError{Msg: fmt.Sprintf("unknown experiment %q (want one of %v)", spec.Exp, bench.Keys())})
	}
	id, job, err := s.JobID(spec)
	if err != nil {
		return reject("spec", err)
	}
	adm.SetAttr("job_id", id)
	// attach resolves a duplicate submission onto an existing record:
	// a singleflight.join span instead of queue/execute stages, since
	// this request does no further work of its own.
	attach := func(info JobInfo) (JobInfo, error) {
		s.m.dupAttach.Add(1)
		adm.End()
		join := root.Child("singleflight.join")
		join.SetAttr("job_id", id)
		if info.TraceID != "" {
			join.SetAttr("owner_trace_id", info.TraceID)
		}
		join.End()
		root.SetAttr("outcome", "deduplicated")
		root.End()
		s.log.Debug("job deduplicated",
			"trace_id", tid, "tenant", tenant, "job_id", id, "owner_trace_id", info.TraceID)
		return info, nil
	}
	// An existing live record single-flights the duplicate before it
	// costs quota or a queue slot.
	if rec, ok := s.store.get(id); ok {
		if info := rec.snapshot(); info.Status != StatusFailed {
			return attach(info)
		}
	}
	if err := s.quotas.admit(tenant, time.Now()); err != nil {
		s.m.rejQuota.Add(1)
		return reject("quota", err)
	}
	rec, fresh := s.store.admit(id, spec, tid, time.Now())
	if !fresh {
		return attach(rec.snapshot())
	}
	adm.End()

	timeout := s.opt.JobTimeout
	if spec.TimeoutSeconds > 0 {
		timeout = time.Duration(spec.TimeoutSeconds * float64(time.Second))
	}
	// Execution deliberately runs on the server's context, not the
	// submitter's: shared (single-flighted) work must survive one
	// client's disconnect.
	execCtx := s.base
	var cancel context.CancelFunc
	if timeout > 0 {
		execCtx, cancel = context.WithTimeout(execCtx, timeout)
	}
	// The trace handles ride the record from here on: the batcher can
	// flush this request on its own goroutine the moment Submit returns,
	// so they must be attached before the queue is entered.
	queue := root.Child("queue.wait")
	rec.setTrace(traceState{trace: tr, root: root, queue: queue})
	req, err := s.batcher.Submit(execCtx, id, job)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		// Roll the record back so a retry after backoff re-admits.
		rec.complete(nil, false, 0, err.Error(), "")
		queue.SetAttr("rejected", "queue_full")
		queue.End()
		root.SetAttr("outcome", "rejected")
		root.End()
		if _, ok := err.(*QueueFullError); ok {
			s.m.rejQueue.Add(1)
		}
		s.log.Info("job rejected",
			"trace_id", tid, "tenant", tenant, "job_id", id, "reason", "queue_full", "err", err.Error())
		return JobInfo{}, err
	}
	if cancel != nil {
		// The batcher cancels the request context on delivery; release
		// the timeout timer right behind it.
		context.AfterFunc(req.Context(), cancel)
	}
	s.m.accepted.Add(1)
	s.m.queueDepth.Set(float64(s.batcher.Depth()))
	s.log.Debug("job accepted",
		"trace_id", tid, "tenant", tenant, "job_id", id, "exp", spec.Exp, "queue_depth", s.batcher.Depth())
	return rec.snapshot(), nil
}

// WaitDone blocks until the job with id completes (or ctx is done) and
// returns its final info.
func (s *Server) WaitDone(ctx context.Context, id string) (JobInfo, error) {
	rec, ok := s.store.get(id)
	if !ok {
		return JobInfo{}, fmt.Errorf("serve: no job %s", id)
	}
	select {
	case <-rec.done:
		return rec.snapshot(), nil
	case <-ctx.Done():
		return JobInfo{}, ctx.Err()
	}
}

// Info returns the current state of job id.
func (s *Server) Info(id string) (JobInfo, bool) {
	rec, ok := s.store.get(id)
	if !ok {
		return JobInfo{}, false
	}
	return rec.snapshot(), true
}

// Result returns the completed job's envelope bytes and info.
func (s *Server) Result(id string) ([]byte, JobInfo, bool) {
	rec, ok := s.store.get(id)
	if !ok {
		return nil, JobInfo{}, false
	}
	raw, info := rec.result()
	return raw, info, true
}

// execBatch executes one flushed batch on the sweep pool. Each batch
// slot's Name carries its index so the runner can recover the request
// and honor its context (per-request deadline) inside the kernel.
func (s *Server) execBatch(batch []*Request) {
	s.m.batchJobs.Observe(float64(len(batch)))
	flushed := time.Now()
	jobs := make([]sweep.Job, len(batch))
	forms := make([]*obs.ReqSpan, len(batch))
	for i, r := range batch {
		jobs[i] = r.Job
		jobs[i].Name = strconv.Itoa(i)
		if rec, ok := s.store.get(r.ID); ok {
			rec.setRunning()
			forms[i] = rec.beginExec(len(batch))
		}
	}
	for _, f := range forms {
		f.End()
	}
	results, err := sweep.Run(s.base, jobs, sweep.Options{
		Workers:  s.opt.Workers,
		CacheDir: s.opt.CacheDir,
		Metrics:  s.reg,
		// Batch slots map 1:1 onto sweep input indices, so the sweep's
		// cache-lookup/execute spans nest under each request's execute
		// stage span.
		SpanFor: func(i int, j sweep.Job) *obs.ReqSpan {
			if i < 0 || i >= len(batch) {
				return nil
			}
			if rec, ok := s.store.get(batch[i].ID); ok {
				return rec.traceHandles().exec
			}
			return nil
		},
		Run: func(ctx context.Context, j sweep.Job) (bench.Result, error) {
			i, aerr := strconv.Atoi(j.Name)
			if aerr != nil || i < 0 || i >= len(batch) {
				return bench.Result{}, fmt.Errorf("serve: lost batch slot %q", j.Name)
			}
			req := batch[i]
			jctx, cancel := joinContext(ctx, req.Context())
			defer cancel()
			orig := req.Job
			return s.run(jctx, orig)
		},
	})
	if err != nil {
		// Sweep-level failure (unusable cache dir): fail the whole batch.
		for _, r := range batch {
			r.deliver(sweep.JobResult{Job: r.Job, Err: err})
			s.finish(r, sweep.JobResult{Job: r.Job, Err: err}, flushed)
		}
		return
	}
	for i, r := range batch {
		res := results[i]
		r.deliver(res)
		s.finish(r, res, flushed)
	}
	s.m.queueDepth.Set(float64(s.batcher.Depth()))
}

// finish resolves the request's store record, updates counters, seals
// the request trace and records the completed job in the run ledger.
func (s *Server) finish(r *Request, res sweep.JobResult, flushed time.Time) {
	rec, ok := s.store.get(r.ID)
	if !ok {
		return
	}
	info := rec.snapshot()
	dur := res.Duration
	if dur == 0 {
		dur = time.Since(flushed)
	}
	s.m.jobSeconds.Observe(dur.Seconds())
	// serve.request.seconds is the end-to-end latency a submitter saw:
	// queueing (batch fill + max-wait) plus execution.
	wall := time.Since(info.SubmittedAt)
	s.m.requestSeconds.Observe(wall.Seconds())
	errMsg := ""
	if res.Err != nil {
		errMsg = res.Err.Error()
		s.m.failed.Add(1)
	} else {
		s.m.completed.Add(1)
		if res.Cached {
			s.m.cacheHits.Add(1)
		}
	}
	ts := rec.traceHandles()
	// On the sweep-level failure path beginExec never ran; end the
	// queue span here so the tree stays consistent (no-op otherwise).
	ts.queue.End()
	ts.exec.SetAttr("cached", strconv.FormatBool(res.Cached))
	if errMsg != "" {
		ts.exec.SetAttr("error", errMsg)
	}
	ts.exec.End()
	runID := s.recordJob(info, res, errMsg, ts)
	level := slog.LevelDebug
	if s.opt.SlowRequest > 0 && wall > s.opt.SlowRequest {
		level = slog.LevelWarn
	}
	s.log.Log(context.Background(), level, "job finished",
		"trace_id", info.TraceID, "tenant", tenantOf(info.Spec), "job_id", r.ID,
		"exp", info.Spec.Exp, "cached", res.Cached, "failed", errMsg != "",
		"wall_seconds", wall.Seconds(), "exec_seconds", dur.Seconds(),
		"queue_seconds", (wall - dur).Seconds(), "slow", level == slog.LevelWarn)
	rec.complete(res.Raw, res.Cached, dur, errMsg, runID)
}

// recordJob appends one completed-job entry to the run ledger
// (best-effort: a ledger failure never fails the job it describes). It
// also owns the end of the request trace: a ledger.write span covers
// entry assembly, then the root span ends and the sealed span tree is
// embedded in the entry — so the tree the ledger stores includes every
// stage, at the price of the final disk write itself falling just
// outside its own span.
func (s *Server) recordJob(info JobInfo, res sweep.JobResult, errMsg string, ts traceState) string {
	spec := info.Spec
	if s.opt.LedgerDir == "" {
		ts.root.End()
		return ""
	}
	lw := ts.root.Child("ledger.write")
	e, err := telemetry.NewEntry("sarserve.job", time.Now(), map[string]any{
		"exp": spec.Exp, "scale": spec.Scale, "tag": spec.Tag,
	}, "exp="+spec.Exp, "tenant="+tenantOf(spec))
	if err != nil {
		lw.End()
		ts.root.End()
		return ""
	}
	e.WallSeconds = res.Duration.Seconds()
	e.TraceID = info.TraceID
	e.Extra = map[string]any{
		"job_id": info.ID,
		"tenant": tenantOf(spec),
		"cached": res.Cached,
		"failed": errMsg != "",
	}
	if errMsg != "" {
		e.Extra["error"] = errMsg
	}
	if len(res.Raw) > 0 {
		e.Envelope = res.Raw
	}
	lw.End()
	ts.root.End()
	if ts.trace != nil {
		if doc := ts.trace.Doc(); len(doc.Spans) > 0 {
			if b, jerr := json.Marshal(doc); jerr == nil {
				e.Trace = b
			}
		}
	}
	runID, err := telemetry.Record(s.opt.LedgerDir, e)
	if err != nil {
		s.log.Warn("ledger write failed",
			"trace_id", info.TraceID, "job_id", info.ID, "err", err.Error())
		return ""
	}
	return runID
}

// Drain gracefully shuts the server down: admission stops (readyz turns
// 503, POST /v1/jobs returns 503 + Retry-After), the pending partial
// batch flushes, in-flight jobs run to completion (bounded by ctx), and
// a final summary entry lands in the run ledger. Jobs still running when
// ctx expires are cancelled.
func (s *Server) Drain(ctx context.Context) error {
	select {
	case <-s.drainCh:
	default:
		close(s.drainCh)
	}
	err := s.batcher.Close(ctx)
	if err != nil {
		s.stop() // cut the stragglers loose before the process exits
	}
	s.recordDrain(err)
	return err
}

// recordDrain appends the final drain summary to the run ledger.
func (s *Server) recordDrain(drainErr error) {
	if s.opt.LedgerDir == "" {
		return
	}
	e, err := telemetry.NewEntry("sarserve", s.started, map[string]any{
		"workers":     s.opt.Workers,
		"batch_size":  s.opt.BatchSize,
		"queue_limit": s.opt.QueueLimit,
		"quota_jps":   s.opt.Quota.JobsPerSec,
	})
	if err != nil {
		return
	}
	e.Metrics = telemetry.MetricsMap(s.reg.Snapshot())
	e.Extra = map[string]any{
		"jobs_stored": s.store.len(),
		"drain_clean": drainErr == nil,
	}
	_, _ = telemetry.Record(s.opt.LedgerDir, e)
}

// tenantOf resolves the spec's quota bucket name.
func tenantOf(spec JobSpec) string {
	if spec.Tenant == "" {
		return "default"
	}
	return spec.Tenant
}

// joinContext derives a context cancelled when either parent is done —
// how a per-request deadline composes with the server's base context
// inside the sweep runner. b's deadline carries over as a real deadline,
// so an overrun surfaces as context.DeadlineExceeded, not a bare cancel.
func joinContext(a, b context.Context) (context.Context, context.CancelFunc) {
	var ctx context.Context
	var cancel context.CancelFunc
	if dl, ok := b.Deadline(); ok {
		ctx, cancel = context.WithDeadline(a, dl)
	} else {
		ctx, cancel = context.WithCancel(a)
	}
	stop := context.AfterFunc(b, func() {
		// When b ended on its deadline, the joined context carries the
		// same deadline and its own timer reports DeadlineExceeded;
		// cancelling here would race it and misreport Canceled.
		if !errors.Is(b.Err(), context.DeadlineExceeded) {
			cancel()
		}
	})
	return ctx, func() { stop(); cancel() }
}
