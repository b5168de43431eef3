package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestAdvisoryPinsBaselines pins which leaves of each committed baseline
// Advisory lets report without gating: the advisory numeric leaves out
// of all numeric leaves, per envelope, and no advisory non-numeric leaf
// (flags such as bit_identical and conform_ok always gate).
func TestAdvisoryPinsBaselines(t *testing.T) {
	want := map[string][2]int{
		"sweep":   {5, 8},
		"profile": {3, 11},
		"serve":   {17, 51},
		"kernels": {55, 89},
		"scale":   {0, 29},
	}
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Fatalf("committed baselines %v, want one per %v", files, want)
	}
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		leaves, err := flattenJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		name, err := strconv.Unquote(leaves["name"].raw)
		if err != nil {
			t.Fatalf("%s: envelope name: %v", f, err)
		}
		advisory, numeric := 0, 0
		for p, l := range leaves {
			adv := matchAny(Advisory(name), p)
			if adv && !l.isNum {
				t.Errorf("%s: non-numeric leaf %s = %s is advisory", name, p, l.raw)
			}
			if l.isNum {
				numeric++
				if adv {
					advisory++
				}
			}
		}
		if got := [2]int{advisory, numeric}; got != want[name] {
			t.Errorf("%s: %d of %d numeric leaves advisory, want %d of %d", name, got[0], got[1], want[name][0], want[name][1])
		}
	}
	if pats := Advisory("nope"); pats != nil {
		t.Errorf("unknown envelope has advisory patterns %v; all its leaves must gate", pats)
	}
}
