package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"time"

	"sarmany/internal/obs"
	"sarmany/internal/telemetry"
)

// drainRetryAfter is the Retry-After hint stamped on 503 responses while
// the server drains: long enough for a rolling restart to bring a
// replacement up.
const drainRetryAfter = 5 * time.Second

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header for JSON-only
	// clients (429/503 responses).
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs              submit a job (202; ?wait=1 blocks to 200)
//	GET  /v1/jobs/{id}         job status
//	GET  /v1/jobs/{id}/result  result envelope (200 done, 202 pending)
//	GET  /metrics              Prometheus text exposition
//	GET  /debug/vars           expvar-style JSON metrics
//	GET  /healthz              liveness (always 200 while serving)
//	GET  /readyz               readiness (503 once draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleInfo)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleExpvar)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeError(w, http.StatusServiceUnavailable, "draining", drainRetryAfter)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// maxSpecBytes caps a submission's body; a job spec is a few short fields.
const maxSpecBytes = 64 << 10

// handleSubmit is POST /v1/jobs: decode the spec, run admission, and
// answer 202 with the job record (200 when attaching to an existing
// one). With ?wait=1 the handler blocks until the job resolves and
// answers 200 with the final record — the synchronous mode load
// generators use to measure end-to-end latency. The body is read whole
// before decoding, so one over maxSpecBytes answers 413 whatever it
// holds.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&spec)
		if _, next := dec.Token(); err == nil && next != io.EOF { // more than whitespace follows
			err = cmp.Or(next, errors.New("data after the job spec"))
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad request body: "+err.Error(), 0)
		return
	}
	ctx, tid := s.traceContext(r)
	// Every submission answers with its trace ID, sampled or not — the
	// correlation key for logs, the ledger and `sarlog trace`. Set
	// before any body writes so error responses carry it too.
	w.Header().Set("X-Trace-Id", tid)
	info, err := s.Submit(ctx, spec)
	if err != nil {
		writeAdmissionError(w, err)
		return
	}
	status := http.StatusAccepted
	if info.Status == StatusDone || info.Status == StatusFailed {
		status = http.StatusOK
	}
	if r.URL.Query().Get("wait") != "" {
		done, err := s.WaitDone(r.Context(), info.ID)
		if err != nil {
			writeError(w, http.StatusGatewayTimeout, err.Error(), 0)
			return
		}
		writeJSON(w, http.StatusOK, done)
		return
	}
	writeJSON(w, status, info)
}

// traceContext establishes the submission's trace identity. An inbound
// W3C traceparent header wins outright: its trace ID is adopted and its
// sampled flag decides whether a span tree is collected (the caller's
// span becomes the remote parent, so the exported tree splices under
// the caller's trace). Without one, a fresh ID is minted and
// Options.TraceSample head-samples the collection decision.
func (s *Server) traceContext(r *http.Request) (context.Context, string) {
	ctx := r.Context()
	if id, parent, sampled, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		if sampled {
			tr := obs.NewReqTrace(id)
			tr.SetRemoteParent(parent)
			ctx = obs.ContextWithTrace(ctx, tr)
		}
		return ContextWithTraceID(ctx, id.String()), id.String()
	}
	id := obs.NewTraceID()
	if p := s.opt.TraceSample; p > 0 && (p >= 1 || rand.Float64() < p) {
		ctx = obs.ContextWithTrace(ctx, obs.NewReqTrace(id))
	}
	return ContextWithTraceID(ctx, id.String()), id.String()
}

// handleInfo is GET /v1/jobs/{id}.
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Info(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job", 0)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleResult is GET /v1/jobs/{id}/result: the completed job's bench
// envelope verbatim (the BENCH_<name>.json bytes). A job still queued or
// running answers 202 with its record; a failed job answers 500 with
// its error.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	raw, info, ok := s.Result(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job", 0)
		return
	}
	switch info.Status {
	case StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(raw)
	case StatusFailed:
		writeError(w, http.StatusInternalServerError, info.Error, 0)
	default:
		writeJSON(w, http.StatusAccepted, info)
	}
}

// handleMetrics serves the registry in Prometheus text format under the
// "sarmany" namespace.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WritePrometheus(w, s.reg.Snapshot(), "sarmany"); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleExpvar serves the registry as expvar-compatible JSON.
func (s *Server) handleExpvar(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := telemetry.WriteExpvar(w, s.reg.Snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeAdmissionError maps the typed admission errors onto HTTP
// backpressure: 400 for a bad spec, 429 + Retry-After for quota and
// queue rejections, 503 + Retry-After while draining.
func writeAdmissionError(w http.ResponseWriter, err error) {
	var (
		spec  *SpecError
		quota *QuotaError
		full  *QueueFullError
		drain *DrainingError
	)
	switch {
	case errors.As(err, &spec):
		writeError(w, http.StatusBadRequest, err.Error(), 0)
	case errors.As(err, &quota):
		writeError(w, http.StatusTooManyRequests, err.Error(), quota.RetryAfter)
	case errors.As(err, &full):
		writeError(w, http.StatusTooManyRequests, err.Error(), full.RetryAfter)
	case errors.As(err, &drain):
		writeError(w, http.StatusServiceUnavailable, err.Error(), drainRetryAfter)
	default:
		writeError(w, http.StatusBadRequest, err.Error(), 0)
	}
}

// writeError emits the JSON error envelope, with a Retry-After header
// (whole seconds, rounded up, at least 1) when a hint is given.
func writeError(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	body := errorBody{Error: msg}
	if retryAfter > 0 {
		sec := math.Max(1, math.Ceil(retryAfter.Seconds()))
		w.Header().Set("Retry-After", fmt.Sprintf("%.0f", sec))
		body.RetryAfterSeconds = sec
	}
	writeJSON(w, status, body)
}

// writeJSON emits v as an indented JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
