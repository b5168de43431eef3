// Package examples_test runs every program under examples/ and compares
// its standard output with the transcript committed in testdata. The
// examples print modeled cycle counts and host-computed image figures,
// all deterministic, so any change to what a reader of an example sees
// fails here.
//
// To refresh a transcript after an intended change, run the example in
// an empty directory (four of them write PNGs into the working
// directory) and save its standard output as testdata/<name>.txt.
package examples_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestExamplesMatchTranscripts(t *testing.T) {
	mains, err := filepath.Glob("*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(mains))
	for i, m := range mains {
		names[i] = filepath.Dir(m)
	}
	transcripts, err := filepath.Glob(filepath.Join("testdata", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 || len(transcripts) != len(names) {
		t.Fatalf("%d examples, %d transcripts: every example needs exactly one", len(names), len(transcripts))
	}

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./...: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Dir = t.TempDir()
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from testdata/%s.txt at line %d\n--- got\n%s--- want\n%s",
					name, firstDiffLine(got, want), got, want)
			}
		})
	}
}

// firstDiffLine returns the 1-based number of the first line where a and
// b differ.
func firstDiffLine(a, b []byte) int {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}
