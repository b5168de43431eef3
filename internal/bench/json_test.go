package bench

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sarmany/internal/report"
)

func TestResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pts := []ScalingPoint{
		{Cores: 1, Seconds: 2.5, Speedup: 1},
		{Cores: 16, Seconds: 0.25, Speedup: 10},
	}
	path, err := WriteFile(dir, Result{
		Name: "scaling", Title: "FFBP speedup vs core count",
		Pulses: 128, Bins: 251, Data: pts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_scaling.json"); path != want {
		t.Errorf("path %q, want %q", path, want)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r RawResult
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if r.Name != "scaling" || r.Title != "FFBP speedup vs core count" ||
		r.Pulses != 128 || r.Bins != 251 {
		t.Errorf("envelope fields lost: %+v", r)
	}
	var got []ScalingPoint
	if err := json.Unmarshal(r.Data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("got %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Errorf("point %d: got %+v, want %+v", i, got[i], pts[i])
		}
	}
}

func TestExperimentUnknownKey(t *testing.T) {
	if err := Experiment(context.Background(), "nope", io.Discard, report.Small(), "", ""); err == nil {
		t.Error("no error for unknown experiment key")
	}
}
