package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	fx := buildFixture(t)
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := &TenantSnapshot{
		Version: SnapshotVersion,
		Tenant:  "prod",
		Config:  tenantCfg(2, 0).withDefaults(),
		Model:   fx.model,
		Seq:     7,
	}
	if err := store.Save(ts); err != nil {
		t.Fatal(err)
	}
	// Overwrites are atomic replacements, not appends.
	ts.Seq = 9
	if err := store.Save(ts); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load("prod")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 9 || got.Tenant != "prod" || got.Config.Workers != 2 {
		t.Fatalf("loaded snapshot %+v", got)
	}

	names, err := store.List()
	if err != nil || len(names) != 1 || names[0] != "prod" {
		t.Fatalf("list: %v %v", names, err)
	}
	if err := store.Delete("prod"); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete("prod"); err != nil {
		t.Fatal("deleting an absent snapshot must be a no-op, got", err)
	}
	if names, _ := store.List(); len(names) != 0 {
		t.Fatalf("list after delete: %v", names)
	}
}

func TestStoreRejectsHostileInput(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", ".hidden", "a/b", strings.Repeat("x", 65), "père"} {
		if _, err := store.Load(name); err == nil {
			t.Fatalf("Load(%q) accepted an invalid tenant name", name)
		}
	}
	// A truncated snapshot is a loud load error, never a silent fresh start.
	path := filepath.Join(dir, "broken"+snapshotSuffix)
	if err := os.WriteFile(path, []byte(`{"version":1,"tenant":"bro`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("broken"); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
	// A snapshot filed under the wrong tenant name is rejected too.
	good := filepath.Join(dir, "alias"+snapshotSuffix)
	if err := os.WriteFile(good, []byte(`{"version":1,"tenant":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("alias"); err == nil {
		t.Fatal("mismatched tenant field loaded without error")
	}
	// Stray files without the snapshot suffix are invisible to List.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "notes.txt" || n == "notes" {
			t.Fatalf("stray file leaked into List: %v", names)
		}
	}
}

// TestBootFailsOnCorruptSnapshot pins the fail-loud contract: a server must
// refuse to boot over a store holding an undecodable snapshot rather than
// silently discarding a tenant's state.
func TestBootFailsOnCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prod"+snapshotSuffix)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(Options{Store: store}); err == nil {
		t.Fatal("server booted over a corrupt snapshot")
	}
}

// TestDrainRebootContinuity is the graceful counterpart of the chaos suite:
// a drained server writes final snapshots even with periodic snapshots
// disabled, so a reboot resumes with zero loss and the full timeline intact.
// The legacy case creates the tenant with a config carrying "shards" and
// "sketch_eps" (since-removed knobs) and injects the fields into the saved
// snapshot too: both must still be accepted, the fields ignored, and the
// timeline byte-identical.
func TestDrainRebootContinuity(t *testing.T) {
	fx := buildFixture(t)
	cfg := tenantCfg(2, 0)
	cfg.SnapshotEvery = -1 // only the drain-time snapshot stands between runs
	want := mustJSON(t, fx.wantTimeline(t, cfg))
	wire := wireTicks(fx.ticks)
	const splitAt = 31

	for _, legacy := range []bool{false, true} {
		dir := t.TempDir()
		srvA, cA, hsA := newTestServer(t, dir)
		var req any = createTenantRequest{Config: cfg, Model: fx.model}
		if legacy {
			req = map[string]json.RawMessage{
				"config": withLegacyFields(t, mustJSON(t, cfg)),
				"model":  mustJSON(t, fx.model),
			}
		}
		if code := cA.do(http.MethodPut, "/v1/tenants/prod", req, nil); code != http.StatusCreated {
			t.Fatalf("legacy=%v create: status %d", legacy, code)
		}
		if code := cA.ingest("prod", wire[:splitAt]); code != http.StatusAccepted {
			t.Fatalf("legacy=%v ingest: status %d", legacy, code)
		}
		if err := srvA.Quiesce(context.Background(), "prod"); err != nil {
			t.Fatal(err)
		}
		head := cA.verdicts("prod", 0)
		if err := srvA.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		hsA.Close()

		if legacy {
			path := filepath.Join(dir, "prod"+snapshotSuffix)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var snap map[string]json.RawMessage
			if err := json.Unmarshal(blob, &snap); err != nil {
				t.Fatal(err)
			}
			snap["config"] = withLegacyFields(t, snap["config"])
			if err := os.WriteFile(path, mustJSON(t, snap), 0o644); err != nil {
				t.Fatal(err)
			}
		}

		srvB, cB, _ := newTestServer(t, dir)
		if code := cB.ingest("prod", wire[splitAt:]); code != http.StatusAccepted {
			t.Fatalf("legacy=%v resumed ingest: status %d", legacy, code)
		}
		if err := srvB.Quiesce(context.Background(), "prod"); err != nil {
			t.Fatal(err)
		}
		tail := cB.verdicts("prod", head.Next)
		var stitched []*verdictJSON
		for _, sv := range append(head.Verdicts, tail.Verdicts...) {
			stitched = append(stitched, &verdictJSON{sv.Seq, mustJSON(t, sv.Verdict)})
		}
		if got := stitchTimeline(t, stitched); string(got) != string(want) {
			t.Fatalf("legacy=%v drain/reboot timeline diverges:\n%s\nvs\n%s", legacy, got, want)
		}
		if err := srvB.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// withLegacyFields returns the tenant config JSON with the "shards" and
// "sketch_eps" fields added, as configs written before those knobs' removal
// carry them.
func withLegacyFields(t testing.TB, config json.RawMessage) json.RawMessage {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(config, &fields); err != nil {
		t.Fatal(err)
	}
	fields["shards"] = json.RawMessage("7")
	fields["sketch_eps"] = json.RawMessage("0.05")
	return mustJSON(t, fields)
}
