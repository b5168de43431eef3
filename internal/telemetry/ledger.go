// Package telemetry is the run-history and live-observability layer on
// top of internal/obs: a content-addressed append-only run ledger (every
// CLI run leaves a provenance-tracked manifest under out/runs/), a
// flight recorder with heartbeat sampling and a stall watchdog for live
// runs, and exposition of metric snapshots in Prometheus text format and
// expvar-compatible JSON.
package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sarmany/internal/obs"
)

// Host records the machine shape a run executed on — advisory context
// for interpreting wall-clock fields, never part of the result identity.
type Host struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
	Hostname  string `json:"hostname,omitempty"`
}

// CurrentHost describes the running machine.
func CurrentHost() Host {
	h := Host{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
	}
	if name, err := os.Hostname(); err == nil {
		h.Hostname = name
	}
	return h
}

// Entry is one ledger manifest: the full provenance of one CLI run plus
// its results. The ID is the content address — a SHA-256 prefix over the
// entry marshaled with ID cleared — so identical runs produce identical
// IDs and a tampered entry no longer matches its own name.
type Entry struct {
	ID   string `json:"id,omitempty"`
	Tool string `json:"tool"`
	// Args are the relevant flag settings, as "flag=value" strings.
	Args  []string  `json:"args,omitempty"`
	Start time.Time `json:"start"`
	// WallSeconds is the host wall-clock duration of the run — advisory,
	// like everything else about the host.
	WallSeconds float64 `json:"wall_seconds"`
	// Salt and Version mirror the bench envelope provenance fields: the
	// schema salt and the code version that produced the run.
	Salt    string `json:"salt,omitempty"`
	Version string `json:"version,omitempty"`
	Host    Host   `json:"host"`

	// Config is the full parameter document of the run (report.Config,
	// kernel settings, ...) and ConfigHash its SHA-256 — the stable
	// identity a diff attributes parameter changes to.
	Config     json.RawMessage `json:"config,omitempty"`
	ConfigHash string          `json:"config_hash,omitempty"`
	// Seed is the deterministic seed the run used (0 when seedless).
	Seed int64 `json:"seed,omitempty"`
	// FaultPlan is the fault-injection plan document and FaultHash its
	// SHA-256 (both empty for clean runs).
	FaultPlan json.RawMessage `json:"fault_plan,omitempty"`
	FaultHash string          `json:"fault_hash,omitempty"`

	// Metrics is the run's metric snapshot in named-leaf form (see
	// MetricsMap): counters and gauges as numbers, histograms as
	// {count,sum,min,max,mean,p50,p90,p99} objects — the shape
	// bench.DiffEnvelopes needs to attribute cycle/energy deltas to
	// metric names rather than array indices.
	Metrics map[string]any `json:"metrics,omitempty"`
	// Envelope is the bench result envelope of the run, when it produced
	// one (BENCH_*.json bytes, embedded raw).
	Envelope json.RawMessage `json:"envelope,omitempty"`
	// Extra carries tool-specific scalars (image dimensions, checksum
	// strings, exit notes) that deserve diffing but fit no other field.
	Extra map[string]any `json:"extra,omitempty"`

	// TraceID is the request-trace identifier of the run that produced
	// this entry (the serving layer's per-request W3C trace ID), the
	// correlation key between ledger entries, structured logs, and
	// inbound traceparent headers. Empty for untraced runs.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the whole-request span tree (an obs.TraceDoc document)
	// recorded when the run was traced — what `sarlog trace` renders.
	// Purely wall-clock, so diffs treat every leaf under it as advisory.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// MetricsMap converts a snapshot into the ledger's named-leaf form, with
// non-finite values as nil (JSON null): encoding/json rejects ±Inf and
// NaN, and one of them would fail the whole document.
func MetricsMap(s obs.Snapshot) map[string]any {
	if len(s) == 0 {
		return nil
	}
	out := make(map[string]any, len(s))
	for _, m := range s {
		switch m.Type {
		case "histogram":
			h := map[string]any{"count": m.Count, "sum": finite(m.Sum)}
			if m.Count > 0 {
				h["min"], h["max"], h["mean"] = finite(m.Min), finite(m.Max), finite(m.Mean)
				h["p50"], h["p90"], h["p99"] = finite(m.P50), finite(m.P90), finite(m.P99)
			}
			out[m.Name] = h
		default:
			out[m.Name] = finite(m.Value)
		}
	}
	return out
}

// finite returns v, or nil when v is ±Inf or NaN.
func finite(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return v
}

// HashJSON returns the full lowercase hex SHA-256 of a canonical JSON
// document — the content address ConfigHash/FaultHash store.
func HashJSON(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// MarshalEntry renders an entry in the canonical on-disk form (indented
// JSON, trailing newline) — the bytes the content address covers.
func MarshalEntry(e Entry) ([]byte, error) {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// idLen is the ID length in hex characters (12 = 48 bits, ample for a
// run history and short enough to type).
const idLen = 12

// computeID derives the content address: SHA-256 over the entry
// marshaled with ID cleared, truncated to idLen hex characters.
func computeID(e Entry) (string, error) {
	e.ID = ""
	b, err := MarshalEntry(e)
	if err != nil {
		return "", err
	}
	return HashJSON(b)[:idLen], nil
}

// Ledger is an append-only content-addressed run store: one JSON file
// per entry under Dir, named run-<start-unixnano>-<id>.json so a plain
// directory listing is already in chronological order.
type Ledger struct {
	Dir string
}

// Open returns a ledger rooted at dir. The directory is created lazily
// on first Append, so opening a ledger never touches the filesystem.
func Open(dir string) *Ledger { return &Ledger{Dir: dir} }

// DefaultDir is the conventional ledger location CLI tools default to.
const DefaultDir = "out/runs"

// entryFilename names an entry file. The zero-padded nanosecond prefix
// sorts lexically in time order.
func entryFilename(e Entry) string {
	return fmt.Sprintf("run-%020d-%s.json", e.Start.UnixNano(), e.ID)
}

// Append computes the entry's content address, writes it atomically
// (temp file + rename) and returns the assigned ID and file path. A
// re-appended identical entry is idempotent: same ID, same file, no
// rewrite. Existing files are never modified.
func (l *Ledger) Append(e Entry) (id, path string, err error) {
	id, err = computeID(e)
	if err != nil {
		return "", "", err
	}
	e.ID = id
	if err := os.MkdirAll(l.Dir, 0o755); err != nil {
		return "", "", err
	}
	path = filepath.Join(l.Dir, entryFilename(e))
	if _, err := os.Stat(path); err == nil {
		return id, path, nil // identical content already stored
	}
	b, err := MarshalEntry(e)
	if err != nil {
		return "", "", err
	}
	tmp, err := os.CreateTemp(l.Dir, ".run-*.tmp")
	if err != nil {
		return "", "", err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", "", err
	}
	return id, path, nil
}

// List returns every stored entry in chronological order (start time,
// then ID). A missing ledger directory is an empty history, not an
// error.
func (l *Ledger) List() ([]Entry, error) {
	names, err := filepath.Glob(filepath.Join(l.Dir, "run-*.json"))
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(names))
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var e Entry
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Read returns the entry with the given full ID along with its stored
// bytes, after verifying the content address still matches — a ledger
// file edited by hand fails loudly here instead of silently feeding a
// diff.
func (l *Ledger) Read(id string) (Entry, []byte, error) {
	matches, err := filepath.Glob(filepath.Join(l.Dir, "run-*-"+id+".json"))
	if err != nil || len(matches) == 0 {
		return Entry{}, nil, fmt.Errorf("ledger: no entry %s in %s", id, l.Dir)
	}
	b, err := os.ReadFile(matches[0])
	if err != nil {
		return Entry{}, nil, err
	}
	var e Entry
	if err := json.Unmarshal(b, &e); err != nil {
		return Entry{}, nil, fmt.Errorf("%s: %w", matches[0], err)
	}
	want, err := computeID(e)
	if err != nil {
		return Entry{}, nil, err
	}
	if want != e.ID || e.ID != id {
		return Entry{}, nil, fmt.Errorf("ledger: %s content hash %s does not match id %s (entry modified?)",
			matches[0], want, id)
	}
	return e, b, nil
}

// Resolve turns a run reference into an entry: "@-1" is the most recent
// run, "@-2" the one before, and anything else matches an entry by
// unambiguous ID prefix.
func (l *Ledger) Resolve(ref string) (Entry, error) {
	entries, err := l.List()
	if err != nil {
		return Entry{}, err
	}
	if len(entries) == 0 {
		return Entry{}, fmt.Errorf("ledger: %s is empty", l.Dir)
	}
	if strings.HasPrefix(ref, "@-") {
		n, err := strconv.Atoi(ref[2:])
		if err != nil || n < 1 {
			return Entry{}, fmt.Errorf("ledger: bad reference %q (want @-1, @-2, ... or an id prefix)", ref)
		}
		if n > len(entries) {
			return Entry{}, fmt.Errorf("ledger: %s reaches past the %d stored runs", ref, len(entries))
		}
		return entries[len(entries)-n], nil
	}
	var hit []Entry
	for _, e := range entries {
		if strings.HasPrefix(e.ID, ref) {
			hit = append(hit, e)
		}
	}
	switch len(hit) {
	case 0:
		return Entry{}, fmt.Errorf("ledger: no run matches %q", ref)
	case 1:
		return hit[0], nil
	default:
		return Entry{}, fmt.Errorf("ledger: %q is ambiguous (%d matches)", ref, len(hit))
	}
}
