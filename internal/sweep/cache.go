package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"sarmany/internal/bench"
	"sarmany/internal/report"
)

// cacheKey returns the content address of a job: a SHA-256 over the
// canonical JSON of the workload selector, the experiment configuration,
// any extra workload parameters, and the code-version salt. Job.Name is
// deliberately excluded — a relabeled job is the same simulation.
//
// encoding/json is canonical for this purpose: struct fields marshal in
// declaration order and map keys sort, so equal configs always hash
// equally. All config types (report.Config, sar.Params, emu.Params,
// refcpu.Params) are plain data.
func cacheKey(j Job, salt string) (string, error) {
	b, err := json.Marshal(struct {
		Salt   string        `json:"salt"`
		Exp    string        `json:"exp"`
		Config report.Config `json:"config"`
		Extra  any           `json:"extra,omitempty"`
	}{Salt: salt, Exp: j.Exp, Config: j.Config, Extra: j.Extra})
	if err != nil {
		return "", fmt.Errorf("sweep: job %q not hashable: %w", j.Name, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Key exposes a job's cache key (with the default salt when salt is
// empty) for tooling and tests.
func Key(j Job, salt string) (string, error) {
	if salt == "" {
		salt = Salt
	}
	return cacheKey(j, salt)
}

// diskCache stores one canonical envelope encoding per content address,
// as <dir>/sweep-<key>.json.
type diskCache struct{ dir string }

func openCache(dir string) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	return &diskCache{dir: dir}, nil
}

func (c *diskCache) path(key string) string {
	return filepath.Join(c.dir, "sweep-"+key+".json")
}

// load returns the cached envelope for key, if present and decodable.
// Data stays a json.RawMessage so the replayed envelope re-encodes to
// the exact bytes that were stored.
func (c *diskCache) load(key string) ([]byte, bench.Result, bool) {
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, bench.Result{}, false
	}
	var rr bench.RawResult
	if err := json.Unmarshal(raw, &rr); err != nil {
		// A truncated or corrupt entry is a miss; the rerun overwrites it.
		return nil, bench.Result{}, false
	}
	env := bench.Result{Name: rr.Name, Title: rr.Title, Pulses: rr.Pulses, Bins: rr.Bins,
		Salt: rr.Salt, Version: rr.Version, Data: rr.Data}
	return raw, env, true
}

// store writes the envelope bytes atomically (temp file + rename), so a
// concurrent reader never observes a partial entry.
func (c *diskCache) store(key string, raw []byte) error {
	tmp, err := os.CreateTemp(c.dir, "sweep-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}
