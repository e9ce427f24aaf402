package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestVersion1SnapshotResumes boots a server on testdata/prod.snapshot.json,
// a tenant snapshot the first release's Store.Save wrote after the fixture's
// first 31 ticks (verdicts 1-9, its model's baseline in collection order).
// The model must load with its baseline sorted, and ingesting the remaining
// ticks must yield the verdicts that release served after the same reboot,
// byte for byte as JSON.
func TestVersion1SnapshotResumes(t *testing.T) {
	const splitAt, lastSeq = 31, 9
	dir := t.TempDir()
	blob, err := os.ReadFile(filepath.Join("testdata", "prod"+snapshotSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "prod"+snapshotSuffix), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := (&Store{dir: dir}).Load("prod")
	if err != nil {
		t.Fatal(err)
	}
	for m, bySvc := range ts.Model.Baseline.Data {
		for svc, series := range bySvc {
			if !slices.IsSorted(series) {
				t.Fatalf("restored baseline %s/%s unsorted: %v", m, svc, series)
			}
		}
	}
	srv, c, _ := newTestServer(t, dir)
	wire := wireTicks(buildFixture(t).ticks)
	if code := c.ingest("prod", wire[splitAt:]); code != http.StatusAccepted {
		t.Fatalf("resumed ingest: status %d", code)
	}
	if err := srv.Quiesce(context.Background(), "prod"); err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(c.verdicts("prod", lastSeq).Verdicts, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "prod.next-verdicts.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("resumed verdicts\n%s\nwant\n%s", got, want)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
