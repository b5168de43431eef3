package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sarmany/internal/bench"
	"sarmany/internal/obs"
)

// TestSweepRequestSpans pins the request-trace hook: when the context
// Options.JobContext supplies for a job carries a span, the engine
// records cache.lookup and execute children under it, injects the
// execute span into the runner context, and a warm rerun records only a
// hit=true lookup (no execute).
func TestSweepRequestSpans(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{
		{Name: "a", Exp: "span-test", Extra: 1},
		{Name: "b", Exp: "span-test", Extra: 2},
	}
	sawSpan := make([]bool, len(jobs))
	run := func(ctx context.Context, j Job) (bench.Result, error) {
		sawSpan[j.Extra.(int)-1] = obs.SpanFromContext(ctx) != nil
		return bench.Result{Name: j.Name, Data: map[string]any{"x": j.Extra}}, nil
	}

	runPass := func() obs.TraceDoc {
		tr := obs.NewReqTrace(obs.TraceID{0xaa})
		roots := make([]*obs.ReqSpan, len(jobs))
		for i := range roots {
			roots[i] = tr.StartSpan(fmt.Sprintf("job%d", i))
		}
		_, err := Run(context.Background(), jobs, Options{
			Workers: 2, CacheDir: dir, Run: run,
			JobContext: func(i int) context.Context {
				return obs.ContextWithSpan(context.Background(), roots[i])
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range roots {
			r.End()
		}
		return tr.Doc()
	}

	countByName := func(doc obs.TraceDoc, name, hit string) int {
		n := 0
		for _, s := range doc.Spans {
			if s.Name == name && (hit == "" || s.Attrs["hit"] == hit) {
				n++
			}
		}
		return n
	}

	cold := runPass()
	if got := countByName(cold, "sweep.cache.lookup", "false"); got != len(jobs) {
		t.Errorf("cold run: %d miss lookups, want %d\n%+v", got, len(jobs), cold.Spans)
	}
	if got := countByName(cold, "sweep.execute", ""); got != len(jobs) {
		t.Errorf("cold run: %d execute spans, want %d", got, len(jobs))
	}
	for i, ok := range sawSpan {
		if !ok {
			t.Errorf("job %d: runner context carried no span", i)
		}
	}
	// Each job's spans must parent under its own root.
	parents := map[string]string{}
	for _, s := range cold.Spans {
		parents[s.ID] = s.Parent
	}
	byName := map[string]obs.TraceSpan{}
	for _, s := range cold.Spans {
		if s.Name == "job0" || s.Name == "job1" {
			byName[s.Name] = s
		}
	}
	for _, s := range cold.Spans {
		if s.Name == "sweep.cache.lookup" || s.Name == "sweep.execute" {
			if s.Parent != byName["job0"].ID && s.Parent != byName["job1"].ID {
				t.Errorf("%s span parented to %q, not a job root", s.Name, s.Parent)
			}
		}
	}

	warm := runPass()
	if got := countByName(warm, "sweep.cache.lookup", "true"); got != len(jobs) {
		t.Errorf("warm run: %d hit lookups, want %d\n%+v", got, len(jobs), warm.Spans)
	}
	if got := countByName(warm, "sweep.execute", ""); got != 0 {
		t.Errorf("warm run: %d execute spans, want 0", got)
	}
}

// TestSweepSpansOptional pins that sweeps without JobContext (and job
// contexts without a span) run exactly as before — tracing is strictly
// opt-in.
func TestSweepSpansOptional(t *testing.T) {
	run := func(ctx context.Context, j Job) (bench.Result, error) {
		if obs.SpanFromContext(ctx) != nil {
			t.Error("untraced job's runner context carries a span")
		}
		return bench.Result{Name: j.Name, Data: map[string]any{"x": 1}}, nil
	}
	jobs := []Job{{Name: "a", Exp: "span-test-nil"}}
	for _, jobContext := range []func(int) context.Context{
		nil,
		func(int) context.Context { return context.Background() },
	} {
		res, err := Run(context.Background(), jobs, Options{Run: run, JobContext: jobContext})
		if err != nil || res[0].Err != nil {
			t.Fatalf("untraced sweep failed: %v / %v", err, res[0].Err)
		}
	}
}

// TestSweepJobContext: a job runs on the context Options.JobContext
// supplies. A job whose context has already ended fails with its error
// without running, and a runner stuck past its context's deadline is
// abandoned with context.DeadlineExceeded, not a TimeoutError, which
// belongs to Options.Timeout. The sweep's own context never ends.
func TestSweepJobContext(t *testing.T) {
	jobs := []Job{{Name: "ended", Exp: "jc", Extra: 1}, {Name: "stuck", Exp: "jc", Extra: 2}}
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	stuck, cancelStuck := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelStuck()
	release := make(chan struct{})
	defer close(release)
	ctxs := []context.Context{ended, stuck}
	var runs atomic.Int64
	res, err := Run(context.Background(), jobs, Options{
		Workers: 2, Timeout: time.Hour,
		JobContext: func(i int) context.Context { return ctxs[i] },
		Run: func(ctx context.Context, j Job) (bench.Result, error) {
			runs.Add(1)
			<-release // a kernel that never checks its context
			return bench.Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Errorf("ended job: err = %v, want context.Canceled", res[0].Err)
	}
	if !errors.Is(res[1].Err, context.DeadlineExceeded) {
		t.Errorf("stuck job: err = %v, want context.DeadlineExceeded", res[1].Err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("runner ran %d times, want 1 (only the stuck job)", n)
	}
}
