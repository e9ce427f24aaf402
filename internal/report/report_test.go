package report

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"causalfl/internal/clock"
	"causalfl/internal/eval"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSectionsAreComplete(t *testing.T) {
	sections := Sections()
	if len(sections) < 12 {
		t.Fatalf("report has %d sections; every table, figure and extension must appear", len(sections))
	}
	seen := make(map[string]bool, len(sections))
	for _, s := range sections {
		if s.Title == "" || s.Run == nil {
			t.Fatalf("malformed section %+v", s)
		}
		if seen[s.Title] {
			t.Fatalf("duplicate section %q", s.Title)
		}
		seen[s.Title] = true
	}
	for _, want := range []string{"Table I", "Table II", "Fig. 1", "Fig. 2", "scalability"} {
		found := false
		for title := range seen {
			if strings.Contains(title, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no section mentions %q", want)
		}
	}
}

func TestGenerateQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation skipped in -short mode")
	}
	// A fake clock with Step 0 prints every wall time as 0s, so the whole
	// report is byte-stable and pinned against a golden: any change that
	// moves one random draw of the simulator shifts a table and fails here.
	var b strings.Builder
	if err := Generate(context.Background(), eval.Options{Seed: 42, Quick: true, Clock: &clock.Fake{}}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	golden := filepath.Join("testdata", "quick.golden.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal([]byte(out), want) {
		t.Errorf("quick report diverges from golden %s (run with -update and review the diff if intentional)", golden)
	}
	for _, want := range []string{
		"# causalfl evaluation report",
		"abbreviated",
		"## Table I",
		"## Table II",
		"accuracy",
		"causal relations depend",
		"Concurrent-fault extension",
		"Scalability on generated topologies",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Count(out, "## ") != len(Sections()) {
		t.Errorf("report has %d section headings, want %d", strings.Count(out, "## "), len(Sections()))
	}
}

func TestEffectiveSeed(t *testing.T) {
	if got := effectiveSeed(eval.Options{}); got != 42 {
		t.Errorf("default seed = %d", got)
	}
	if got := effectiveSeed(eval.Options{Seed: 7}); got != 7 {
		t.Errorf("explicit seed = %d", got)
	}
}
