package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sarmany/internal/bench"
	"sarmany/internal/sweep"
	"sarmany/internal/telemetry"
)

// stubRunner returns a fast deterministic runner that counts executions.
func stubRunner(executions *atomic.Int64, delay time.Duration) sweep.RunFunc {
	return func(ctx context.Context, j sweep.Job) (bench.Result, error) {
		executions.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return bench.Result{}, ctx.Err()
			}
		}
		return bench.Result{
			Name: "gbp_vs_ffbp", Title: "stub",
			Data: bench.GBPFFBPResult{GBPSeconds: 2, FFBPSeconds: 1, Speedup: 2},
		}, nil
	}
}

// postJob submits a spec and decodes the response.
func postJob(t *testing.T, ts *httptest.Server, spec string, wait bool) (int, JobInfo, http.Header) {
	t.Helper()
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), &info); err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, info, resp.Header
}

// TestServerSubmitWaitAndResult covers the happy path end to end:
// submit, wait, poll status, fetch the result envelope.
func TestServerSubmitWaitAndResult(t *testing.T) {
	var execs atomic.Int64
	s := NewServer(Options{
		Workers: 2, BatchSize: 2, MaxWait: 5 * time.Millisecond,
		Run: stubRunner(&execs, 0),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, info, _ := postJob(t, ts, `{"exp": "gbp"}`, true)
	if status != http.StatusOK {
		t.Fatalf("wait-submit status = %d, want 200", status)
	}
	if info.Status != StatusDone || info.ID == "" {
		t.Fatalf("info = %+v, want done with an id", info)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var polled JobInfo
	json.NewDecoder(resp.Body).Decode(&polled)
	resp.Body.Close()
	if resp.StatusCode != 200 || polled.Status != StatusDone {
		t.Fatalf("poll = %d %+v", resp.StatusCode, polled)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var env bench.RawResult
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || env.Name != "gbp_vs_ffbp" {
		t.Fatalf("result = %d %+v", resp.StatusCode, env)
	}
	if execs.Load() != 1 {
		t.Errorf("executions = %d, want 1", execs.Load())
	}
}

// TestServerIdempotentResubmit: the same spec resubmitted attaches to
// the existing record (same content-addressed ID, no second execution).
func TestServerIdempotentResubmit(t *testing.T) {
	var execs atomic.Int64
	s := NewServer(Options{
		Workers: 2, BatchSize: 4, MaxWait: 5 * time.Millisecond,
		Run: stubRunner(&execs, 0),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, first, _ := postJob(t, ts, `{"exp": "gbp", "tag": "same"}`, true)
	status, second, _ := postJob(t, ts, `{"exp": "gbp", "tag": "same"}`, false)
	if status != http.StatusOK {
		t.Errorf("resubmit status = %d, want 200 (already done)", status)
	}
	if second.ID != first.ID || second.Status != StatusDone {
		t.Errorf("resubmit = %+v, want done record %s", second, first.ID)
	}
	if execs.Load() != 1 {
		t.Errorf("executions = %d, want 1 (single-flighted)", execs.Load())
	}
	if got := s.Registry().Counter("serve.jobs.deduplicated").Value(); got != 1 {
		t.Errorf("deduplicated = %v, want 1", got)
	}

	// A different tag is a different content address.
	_, third, _ := postJob(t, ts, `{"exp": "gbp", "tag": "other"}`, true)
	if third.ID == first.ID {
		t.Errorf("distinct tag produced the same id %s", third.ID)
	}
	if execs.Load() != 2 {
		t.Errorf("executions = %d, want 2", execs.Load())
	}
}

// TestServerAdmissionErrors: unknown experiments 400, queue saturation
// 429 with Retry-After, quota exhaustion 429 per tenant.
func TestServerAdmissionErrors(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var execs atomic.Int64
	s := NewServer(Options{
		Workers: 1, BatchSize: 1, MaxWait: time.Millisecond, QueueLimit: 1,
		Quota: QuotaConfig{JobsPerSec: 0.001, Burst: 2},
		Run: func(ctx context.Context, j sweep.Job) (bench.Result, error) {
			execs.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return bench.Result{Name: "stub", Data: struct{}{}}, nil
		},
	})
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _, _ := postJob(t, ts, `{"exp": "nonsense"}`, false); status != http.StatusBadRequest {
		t.Errorf("unknown exp status = %d, want 400", status)
	}
	if status, _, _ := postJob(t, ts, `{"exp": "gbp", "scale": "galactic"}`, false); status != http.StatusBadRequest {
		t.Errorf("unknown scale status = %d, want 400", status)
	}

	// First job occupies the queue (BatchSize 1 flushes immediately and
	// blocks on release); the second distinct job overflows QueueLimit 1.
	if status, _, _ := postJob(t, ts, `{"exp": "gbp", "tag": "a"}`, false); status != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", status)
	}
	status, _, hdr := postJob(t, ts, `{"exp": "gbp", "tag": "b"}`, false)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := s.Registry().Counter("serve.jobs.rejected.queue").Value(); got != 1 {
		t.Errorf("rejected.queue = %v, want 1", got)
	}

	// Tenant quota: burst 2 is spent (job a + overflow attempt b drew one
	// token each); the third distinct submission trips the bucket.
	status, _, hdr = postJob(t, ts, `{"exp": "gbp", "tag": "c"}`, false)
	if status != http.StatusTooManyRequests {
		t.Fatalf("quota status = %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("quota 429 without Retry-After header")
	}
	if got := s.Registry().Counter("serve.jobs.rejected.quota").Value(); got != 1 {
		t.Errorf("rejected.quota = %v, want 1", got)
	}
	// Another tenant still has its own budget (but hits the full queue,
	// which is checked after quota — so spend the bucket down instead).
	// The first job executes on the batcher's goroutine; wait until it has
	// started before counting executions.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first job never started")
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("executions = %d, want 1 (only the first job ran)", got)
	}
}

// TestServerRejectsTrailingData: a body must hold one JSON spec and
// nothing after it but whitespace.
func TestServerRejectsTrailingData(t *testing.T) {
	var execs atomic.Int64
	s := NewServer(Options{Workers: 1, BatchSize: 1, MaxWait: time.Millisecond, Run: stubRunner(&execs, 0)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{`{"exp": "gbp"} trailing-garbage`, `{"exp": "gbp"}{"exp": "gbp"}`,
		`{"exp": "gbp"} ]`, `{"exp": "gbp"} 1`} {
		if status, _, _ := postJob(t, ts, body, false); status != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", body, status)
		}
	}
	if status, _, _ := postJob(t, ts, "{\"exp\": \"gbp\"} \n\t ", true); status != http.StatusOK {
		t.Errorf("spec followed by whitespace: status %d, want 200", status)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}

// TestServerCapsBodySize: a body over maxSpecBytes answers 413 and is
// not admitted; a spec just under the cap is.
func TestServerCapsBodySize(t *testing.T) {
	var execs atomic.Int64
	s := NewServer(Options{Workers: 1, BatchSize: 1, MaxWait: time.Millisecond, Run: stubRunner(&execs, 0)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := func(n int) string { return `{"exp": "gbp", "tag": "` + strings.Repeat("x", n) + `"}` }
	over := spec(maxSpecBytes)
	if status, _, _ := postJob(t, ts, over, false); status != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: status %d, want 413", len(over), status)
	}
	under := spec(maxSpecBytes - len(spec(0)))
	if status, _, _ := postJob(t, ts, under, true); status != http.StatusOK {
		t.Errorf("%d-byte body: status %d, want 200", len(under), status)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}

// TestServerDrain: draining flips readyz to 503, rejects new jobs with
// 503 + Retry-After, completes in-flight work, and appends per-job plus
// summary ledger entries.
func TestServerDrain(t *testing.T) {
	ledger := t.TempDir()
	var execs atomic.Int64
	s := NewServer(Options{
		Workers: 2, BatchSize: 4, MaxWait: 5 * time.Millisecond,
		LedgerDir: ledger,
		Run:       stubRunner(&execs, 20*time.Millisecond),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz before drain: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// One job in flight when the drain begins.
	status, info, _ := postJob(t, ts, `{"exp": "gbp"}`, false)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
		}
	}
	status, _, hdr := postJob(t, ts, `{"exp": "gbp", "tag": "late"}`, false)
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit = %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}

	// The in-flight job completed during the drain.
	done, ok := s.Info(info.ID)
	if !ok || done.Status != StatusDone {
		t.Fatalf("in-flight job after drain = %+v", done)
	}

	entries, err := telemetry.Open(ledger).List()
	if err != nil {
		t.Fatal(err)
	}
	var jobEntries, summaries int
	for _, e := range entries {
		switch e.Tool {
		case "sarserve.job":
			jobEntries++
			if len(e.Envelope) == 0 {
				t.Error("job ledger entry without an envelope")
			}
		case "sarserve":
			summaries++
			if e.Metrics == nil {
				t.Error("drain summary without a metric snapshot")
			}
		}
	}
	if jobEntries != 1 || summaries != 1 {
		t.Errorf("ledger = %d job entries + %d summaries, want 1 + 1", jobEntries, summaries)
	}
	if done.RunID == "" {
		t.Error("completed job carries no run_id")
	}
}

// TestServerDeadlinePropagation: a per-request timeout reaches the
// runner's context and fails the job.
func TestServerDeadlinePropagation(t *testing.T) {
	s := NewServer(Options{
		Workers: 1, BatchSize: 1, MaxWait: time.Millisecond,
		Run: func(ctx context.Context, j sweep.Job) (bench.Result, error) {
			<-ctx.Done() // a kernel honoring its checkpoint
			return bench.Result{}, ctx.Err()
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, info, _ := postJob(t, ts, `{"exp": "gbp", "timeout_seconds": 0.05}`, true)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if info.Status != StatusFailed || !strings.Contains(info.Error, "deadline") {
		t.Fatalf("info = %+v, want failed with a deadline error", info)
	}
}

// TestServerExposition: /metrics speaks Prometheus 0.0.4 with the
// serve.* series, /debug/vars is one flat JSON object, /healthz is
// always fine.
func TestServerExposition(t *testing.T) {
	var execs atomic.Int64
	s := NewServer(Options{
		Workers: 1, BatchSize: 1, MaxWait: time.Millisecond,
		Run: stubRunner(&execs, 0),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postJob(t, ts, `{"exp": "gbp"}`, true)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE sarmany_serve_jobs_accepted_total counter",
		"sarmany_serve_jobs_accepted_total 1",
		"# TYPE sarmany_serve_job_seconds histogram",
		"sarmany_serve_job_seconds_count 1",
		"sarmany_sweep_jobs_done_total 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v, ok := vars["serve.jobs.accepted"]; !ok || v.(float64) != 1 {
		t.Errorf("/debug/vars serve.jobs.accepted = %v", v)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestServerSharedCacheAcrossServers: two servers over one cache
// directory single-flight across processes — the second serves the
// first's envelope byte-identically with zero executions.
func TestServerSharedCacheAcrossServers(t *testing.T) {
	cache := t.TempDir()
	mk := func(execs *atomic.Int64) (*Server, *httptest.Server) {
		s := NewServer(Options{
			Workers: 1, BatchSize: 1, MaxWait: time.Millisecond,
			CacheDir: cache,
			Run:      stubRunner(execs, 0),
		})
		return s, httptest.NewServer(s.Handler())
	}
	var e1, e2 atomic.Int64
	_, ts1 := mk(&e1)
	defer ts1.Close()
	_, info1, _ := postJob(t, ts1, `{"exp": "gbp"}`, true)

	s2, ts2 := mk(&e2)
	defer ts2.Close()
	_, info2, _ := postJob(t, ts2, `{"exp": "gbp"}`, true)

	if e1.Load() != 1 || e2.Load() != 0 {
		t.Errorf("executions = %d + %d, want 1 + 0 (second server replays the cache)", e1.Load(), e2.Load())
	}
	if !info2.Cached {
		t.Errorf("second server's job not marked cached: %+v", info2)
	}
	if info1.ID != info2.ID {
		t.Errorf("ids differ across servers: %s vs %s", info1.ID, info2.ID)
	}
	raw1, _, _ := mustResult(t, ts1, info1.ID)
	raw2, _, _ := mustResult(t, ts2, info2.ID)
	if !bytes.Equal(raw1, raw2) {
		t.Error("cached envelope differs from fresh one")
	}
	if got := s2.Registry().Counter("serve.jobs.cachehits").Value(); got != 1 {
		t.Errorf("second server cachehits = %v, want 1", got)
	}
}

// mustResult fetches a completed job's envelope bytes.
func mustResult(t *testing.T, ts *httptest.Server, id string) ([]byte, int, http.Header) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("result status = %d: %s", resp.StatusCode, buf.String())
	}
	return buf.Bytes(), resp.StatusCode, resp.Header
}
