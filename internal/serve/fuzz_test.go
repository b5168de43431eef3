package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sarmany/internal/bench"
)

// FuzzSubmit drives POST /v1/jobs through Server.Handler with arbitrary
// bodies. The runner is a stub that returns a fixed envelope at once, so
// no simulation runs. For every body the handler must not panic or
// answer 5xx; a body over 64 KiB gets 413; a body that is not a valid
// spec gets a 4xx whose JSON envelope names the error; a valid spec,
// re-encoded with its fields in reverse order, gets the same job ID; and
// once the server has drained, that job is done or failed, even when its
// deadline passed before its batch flushed.
func FuzzSubmit(f *testing.F) {
	for _, body := range []string{
		// docs/API.md
		`{"exp": "gbp", "tag": "demo"}`,
		`{"exp": "warp"}`,
		`{"exp": "gbp", "scale": "huge"}`,
		`{"exp": "gbp", "typo_field": 1}`,
		`{"exp": "gbp"} trailing-garbage`,
		`{"exp": "gbp", "tag": "sync"}`,
		// the server tests' rejections and edges
		`{"exp": "nonsense"}`,
		`{"exp": "gbp", "scale": "galactic"}`,
		`{"exp": "gbp"}{"exp": "gbp"}`,
		`{"exp": "gbp"} ]`,
		`{"exp": "gbp"} 1`,
		"{\"exp\": \"gbp\"} \n\t ",
		`{"exp": "gbp", "tag": "` + strings.Repeat("x", maxSpecBytes) + `"}`,
		`{"exp": "t1", "scale": "paper", "tenant": "a", "tag": "b", "timeout_seconds": 2.5}`,
		`{"exp": "gbp", "timeout_seconds": 1e-9}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var execs atomic.Int64
		s := NewServer(Options{Workers: 1, BatchSize: 1, MaxWait: time.Millisecond, Run: stubRunner(&execs, 0)})
		drain := func() {
			if err := s.Drain(context.Background()); err != nil {
				t.Errorf("drain: %v", err)
			}
		}
		defer drain()
		h := s.Handler()
		post := func(b []byte) (int, []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(b)))
			return rec.Code, rec.Body.Bytes()
		}

		code, resp := post(body)
		valid := validSpec(body)
		switch {
		case code >= 500:
			t.Fatalf("status %d: %s", code, resp)
		case len(body) > maxSpecBytes && code != http.StatusRequestEntityTooLarge:
			t.Fatalf("%d-byte body: status %d, want 413", len(body), code)
		case valid != (code < 300):
			t.Fatalf("valid spec %v, but status %d: %s", valid, code, resp)
		case code >= 400:
			var e errorBody
			if err := json.Unmarshal(resp, &e); err != nil || e.Error == "" {
				t.Fatalf("status %d without a named error: %s", code, resp)
			}
			return
		}

		var info JobInfo
		if err := json.Unmarshal(resp, &info); err != nil || info.ID == "" {
			t.Fatalf("status %d without a job record: %s", code, resp)
		}
		if rev := reversedSpec(info.Spec); len(rev) <= maxSpecBytes { // escaping can grow a tag past the cap
			code2, resp2 := post(rev)
			var info2 JobInfo
			if err := json.Unmarshal(resp2, &info2); err != nil || code2 >= 300 || info2.ID != info.ID {
				t.Fatalf("reordered spec %s: status %d, job %q, want job %q", rev, code2, info2.ID, info.ID)
			}
		}
		drain() // the deferred drain then finds the batcher idle
		if got, ok := s.Info(info.ID); !ok || (got.Status != StatusDone && got.Status != StatusFailed) {
			t.Fatalf("job %s is %q after the drain, want done or failed", info.ID, got.Status)
		}
	})
}

// validSpec is docs/API.md's rule for a body the server admits: at most
// 64 KiB holding one JSON object of JobSpec's fields, followed by
// nothing but whitespace, that names a known experiment and scale.
func validSpec(body []byte) bool {
	if len(body) > maxSpecBytes {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if dec.Decode(&spec) != nil {
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		return false
	}
	_, known := bench.Title(spec.Exp)
	return known && (spec.Scale == "" || spec.Scale == "small" || spec.Scale == "paper")
}

// reversedSpec encodes s with its JSON fields in reverse declaration
// order.
func reversedSpec(s JobSpec) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	b.WriteByte('{')
	for i, kv := range []struct {
		k string
		v any
	}{{"timeout_seconds", s.TimeoutSeconds}, {"tag", s.Tag}, {"tenant", s.Tenant}, {"scale", s.Scale}, {"exp", s.Exp}} {
		if i > 0 {
			b.WriteByte(',')
		}
		enc.Encode(kv.k)
		b.WriteByte(':')
		enc.Encode(kv.v)
	}
	b.WriteByte('}')
	return b.Bytes()
}
