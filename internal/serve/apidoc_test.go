package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sarmany/internal/bench"
)

// curlExample is one executable example parsed out of docs/API.md.
type curlExample struct {
	line       int
	method     string
	url        string // path + query, host stripped
	body       string
	wantStatus int
}

// docStatusRe matches the "# -> NNN" expected-status annotation every
// documented curl example must carry.
var docStatusRe = regexp.MustCompile(`#\s*->\s*(\d{3})\s*$`)

// parseCurlExamples extracts every `curl` line from the markdown file.
// The convention (stated in docs/API.md): single-line examples against
// localhost:8357, flags limited to -s, -X <method> and -d '<body>',
// annotated with the expected status as "# -> NNN".
func parseCurlExamples(t *testing.T, path string) []curlExample {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var examples []curlExample
	for i, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "curl ") {
			continue
		}
		m := docStatusRe.FindStringSubmatch(trimmed)
		if m == nil {
			t.Errorf("docs/API.md:%d: curl example lacks a \"# -> NNN\" status annotation", i+1)
			continue
		}
		want, _ := strconv.Atoi(m[1])
		ex := curlExample{line: i + 1, method: http.MethodGet, wantStatus: want}
		toks := tokenize(strings.TrimSuffix(trimmed, m[0]))
		for j := 1; j < len(toks); j++ {
			switch tok := toks[j]; tok {
			case "-s":
			case "-X":
				j++
				ex.method = toks[j]
			case "-d":
				j++
				ex.body = toks[j]
			default:
				if at := strings.Index(tok, "localhost:8357"); at >= 0 {
					ex.url = tok[at+len("localhost:8357"):]
				} else {
					t.Errorf("docs/API.md:%d: unsupported curl token %q", i+1, tok)
				}
			}
		}
		if ex.url == "" {
			t.Errorf("docs/API.md:%d: no localhost:8357 URL in example", i+1)
			continue
		}
		examples = append(examples, ex)
	}
	return examples
}

// tokenize splits a shell line on spaces, honoring single quotes.
func tokenize(line string) []string {
	var toks []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range line {
		switch {
		case r == '\'':
			inQuote = !inQuote
		case r == ' ' && !inQuote:
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}

// TestAPIDocExamples runs every curl example in docs/API.md against a
// live test server, in document order, asserting the documented status
// codes. $JOB is substituted with the ID from the most recent
// successful submission, exactly as the doc promises.
func TestAPIDocExamples(t *testing.T) {
	examples := parseCurlExamples(t, filepath.Join("..", "..", "docs", "API.md"))
	if len(examples) < 10 {
		t.Fatalf("parsed only %d curl examples from docs/API.md, want the full set", len(examples))
	}

	var executions atomic.Int64
	s := NewServer(Options{
		Workers: 2, BatchSize: 4, MaxWait: 5 * time.Millisecond,
		Run: stubRunner(&executions, 0),
	})
	defer s.Drain(t.Context())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := ts.Client()
	lastJob := ""
	for _, ex := range examples {
		url := ts.URL + strings.ReplaceAll(ex.url, "$JOB", lastJob)
		var body io.Reader
		if ex.body != "" {
			body = strings.NewReader(ex.body)
		}
		req, err := http.NewRequest(ex.method, url, body)
		if err != nil {
			t.Fatalf("docs/API.md:%d: %v", ex.line, err)
		}
		if ex.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("docs/API.md:%d: %v", ex.line, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != ex.wantStatus {
			t.Errorf("docs/API.md:%d: %s %s = %d, documented %d\nbody: %s",
				ex.line, ex.method, ex.url, resp.StatusCode, ex.wantStatus, raw)
			continue
		}
		// Remember the latest submitted job's ID for $JOB substitution.
		if ex.method == http.MethodPost && resp.StatusCode < 300 {
			var rec struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(raw, &rec); err == nil && rec.ID != "" {
				lastJob = rec.ID
			}
		}
	}
	if lastJob == "" {
		t.Error("no documented POST produced a job ID — $JOB examples never exercised")
	}
}

// TestAPIDocListsEveryExperiment: the job model's prose in docs/API.md
// (up to its first subsection) names every experiment key admission
// accepts.
func TestAPIDocListsEveryExperiment(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, model, ok := strings.Cut(string(raw), "\n## Job model\n")
	if !ok {
		t.Fatal("docs/API.md has no \"## Job model\" section")
	}
	model, _, _ = strings.Cut(model, "\n#")
	for _, k := range bench.Keys() {
		if !strings.Contains(model, "`"+k+"`") {
			t.Errorf("docs/API.md job model does not list experiment key %q", k)
		}
	}
}
