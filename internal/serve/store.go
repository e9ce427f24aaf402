// Package serve hosts independent per-tenant stream.Pipelines behind a
// long-running HTTP/JSON API (`causalfl serve`), engineered robustness-first:
// bounded ingest queues with explicit backpressure, crash-safe periodic
// snapshots with restore-on-boot, graceful signal-aware drain, and a
// first-class crash-simulation hook (Kill) so the chaos suite can test the
// recovery path the same way production exercises it.
//
// The crash-recovery guarantee rests on two properties. First, snapshots are
// atomic (write-temp, fsync, rename): a crash mid-write leaves the previous
// snapshot intact, never a torn one. Second, re-ingesting samples the tenant
// had already processed is harmless: the aggregator drops replayed stamps by
// design, so an at-least-once producer replaying from its own cursor after a
// crash converges on the exact verdict timeline an uninterrupted run would
// have produced — byte for byte, which the conformance suite asserts.
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"causalfl/internal/core"
	"causalfl/internal/stream"
)

// SnapshotVersion versions the tenant snapshot envelope (the pipeline state
// inside carries its own stream.SnapshotVersion).
const SnapshotVersion = 1

// TenantSnapshot is the on-disk unit of crash safety: everything needed to
// rebuild a tenant exactly — its configuration, its trained model, the
// pipeline's dynamic state, and the serving counters (verdict sequence,
// processed batches, shed count) that must stay consistent with it.
type TenantSnapshot struct {
	Version int          `json:"version"`
	Tenant  string       `json:"tenant"`
	Config  TenantConfig `json:"config"`
	Model   *core.Model  `json:"model"`
	// State is the pipeline's dynamic state; nil for a tenant snapshotted
	// before its first ingest.
	State *stream.PipelineState `json:"state,omitempty"`
	// Seq is the verdict sequence counter at snapshot time. It rewinds in
	// lockstep with State, so verdicts replayed after a crash carry the same
	// sequence numbers as the ones the crash lost.
	Seq uint64 `json:"seq"`
	// Processed counts ingested batches; Shed counts batches rejected with
	// backpressure. Both are carried across restarts for honest accounting.
	Processed uint64 `json:"processed"`
	Shed      uint64 `json:"shed"`
}

// validate checks the envelope and the pipeline state. It leaves the model
// to Load: every model Save sees belongs to a live tenant, and so passed
// core.NewCausalIndex when the tenant was created or restored, and a
// tenant's model never changes after that. Checking it again would re-run
// the full Model.Validate at every periodic snapshot, on the tenant's
// consumer goroutine.
func (ts *TenantSnapshot) validate() error {
	if ts.Version != SnapshotVersion {
		return fmt.Errorf("serve: snapshot version %d, this build reads %d", ts.Version, SnapshotVersion)
	}
	if err := ValidTenantName(ts.Tenant); err != nil {
		return err
	}
	if ts.Model == nil {
		return fmt.Errorf("serve: snapshot for %q has no model", ts.Tenant)
	}
	if ts.State != nil {
		if err := ts.State.Validate(); err != nil {
			return fmt.Errorf("serve: snapshot for %q: %w", ts.Tenant, err)
		}
	}
	return nil
}

// ValidTenantName rejects names that could escape the store directory or
// garble a URL: 1-64 characters drawn from letters, digits, dot, underscore
// and dash, not starting with a dot.
func ValidTenantName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("serve: tenant name must be 1-64 characters, got %d", len(name))
	}
	if name[0] == '.' {
		return fmt.Errorf("serve: tenant name %q may not start with a dot", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("serve: tenant name %q contains %q; allowed are letters, digits, '.', '_', '-'", name, r)
		}
	}
	return nil
}

const snapshotSuffix = ".snapshot.json"

// Store persists tenant snapshots, one file per tenant, with atomic
// replacement: a crash at any instant leaves either the old snapshot or the
// new one on disk, never a prefix.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a snapshot directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: create store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(tenant string) string {
	return filepath.Join(s.dir, tenant+snapshotSuffix)
}

// Save atomically replaces the tenant's snapshot: marshal, write to a
// temporary file in the same directory, fsync it, rename over the target,
// fsync the directory so the rename itself is durable. It checks the
// envelope and the state, not the model (see validate); Load checks all
// three.
func (s *Store) Save(ts *TenantSnapshot) error {
	if err := ts.validate(); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(ts, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode snapshot for %q: %w", ts.Tenant, err)
	}
	blob = append(blob, '\n')

	final := s.path(ts.Tenant)
	tmp, err := os.CreateTemp(s.dir, ts.Tenant+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot %q: %w", ts.Tenant, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		_ = tmp.Close() // the write error is the one worth reporting
		return fmt.Errorf("serve: snapshot %q: %w", ts.Tenant, err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // the sync error is the one worth reporting
		return fmt.Errorf("serve: snapshot %q: %w", ts.Tenant, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: snapshot %q: %w", ts.Tenant, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("serve: snapshot %q: %w", ts.Tenant, err)
	}
	return syncDir(s.dir)
}

// Load reads and validates one tenant's snapshot, the model included. A
// missing snapshot is an os.ErrNotExist-wrapped error; a corrupt one is an
// explicit failure — boot must not silently start that tenant from scratch
// and quietly lose its baselines.
func (s *Store) Load(tenant string) (*TenantSnapshot, error) {
	if err := ValidTenantName(tenant); err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(s.path(tenant))
	if err != nil {
		return nil, fmt.Errorf("serve: load snapshot %q: %w", tenant, err)
	}
	var ts TenantSnapshot
	if err := json.Unmarshal(blob, &ts); err != nil {
		return nil, fmt.Errorf("serve: snapshot %q corrupt: %w", tenant, err)
	}
	if err := ts.validate(); err != nil {
		return nil, err
	}
	if err := ts.Model.Validate(); err != nil {
		return nil, fmt.Errorf("serve: snapshot for %q: %w", ts.Tenant, err)
	}
	if ts.Tenant != tenant {
		return nil, fmt.Errorf("serve: snapshot file for %q names tenant %q", tenant, ts.Tenant)
	}
	return &ts, nil
}

// List returns the tenants with a snapshot on disk, sorted.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: list store: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapshotSuffix) {
			continue
		}
		out = append(out, strings.TrimSuffix(name, snapshotSuffix))
	}
	sort.Strings(out)
	return out, nil
}

// Delete removes a tenant's snapshot (absent is fine) and syncs the
// directory.
func (s *Store) Delete(tenant string) error {
	if err := ValidTenantName(tenant); err != nil {
		return err
	}
	if err := os.Remove(s.path(tenant)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("serve: delete snapshot %q: %w", tenant, err)
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a just-renamed or just-removed entry survives
// power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("serve: sync store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("serve: sync store: %w", err)
	}
	return nil
}
