package report

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"slices"
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
	keys := make(map[string]bool, len(sections))
	for _, s := range sections {
		if s.Key == "" || s.Title == "" || s.Run == nil {
			t.Fatalf("malformed section %+v", s)
		}
		if seen[s.Title] || keys[s.Key] {
			t.Fatalf("duplicate section %q (%s)", s.Title, s.Key)
		}
		seen[s.Title] = true
		keys[s.Key] = true
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
	if err := Generate(context.Background(), eval.Options{Seed: 42, Quick: true, Clock: &clock.Fake{}}, nil, &b); err != nil {
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

// TestGenerateSections checks that a selection of sections is the report's
// header plus those sections of the full report, byte for byte and in
// presentation order, whatever the worker count. The expected blocks are cut
// from the quick golden, so no second full report runs.
func TestGenerateSections(t *testing.T) {
	if testing.Short() {
		t.Skip("report generation skipped in -short mode")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "quick.golden.md"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(string(golden), "\n## ")
	header := blocks[0]
	byKey := make(map[string]string, len(blocks)-1)
	for i, s := range Sections() {
		if !strings.HasPrefix(blocks[i+1], s.Title+"\n") {
			t.Fatalf("golden block %d is not %q", i+1, s.Title)
		}
		byKey[s.Key] = "\n## " + blocks[i+1]
	}
	for _, tc := range []struct {
		keys    []string
		workers int
	}{
		{[]string{"causal-sets", "fig1"}, 1},
		{[]string{"causal-sets", "fig1"}, 4},
		// A single section runs on the caller's pool.
		{[]string{"table1"}, 4},
	} {
		var b strings.Builder
		o := eval.Options{Seed: 42, Quick: true, Workers: tc.workers, Clock: &clock.Fake{}}
		if err := Generate(context.Background(), o, tc.keys, &b); err != nil {
			t.Fatal(err)
		}
		want := header
		for _, s := range Sections() {
			if slices.Contains(tc.keys, s.Key) {
				want += byKey[s.Key]
			}
		}
		if b.String() != want {
			t.Errorf("sections %v at -workers %d:\n%s\nwant\n%s", tc.keys, tc.workers, b.String(), want)
		}
	}
}

func TestGenerateRejectsUnknownSection(t *testing.T) {
	var b strings.Builder
	err := Generate(context.Background(), eval.Options{Quick: true}, []string{"fig1", "nope"}, &b)
	if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "table1, table2, fig1") {
		t.Fatalf("unknown section: %v, want an error naming it and listing the valid keys", err)
	}
	if b.Len() != 0 {
		t.Fatalf("unknown section wrote %q", b.String())
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
