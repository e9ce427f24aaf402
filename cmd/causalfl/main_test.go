package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadInvocations(t *testing.T) {
	cases := [][]string{
		nil,                            // no subcommand
		{"frobnicate"},                 // unknown subcommand
		{"report", "-section", "nope"}, // unknown report section
		{"topology", "-app", "zzz"},    // unknown app
		{"localize"},                   // missing -model/-fault
		{"evaluate", "-app", "zzz"},
		{"train", "-metrics", "nonsense"},
		{"sweep", "-seeds", "0"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(context.Background(), %v) accepted", args)
		}
	}
}

// TestRunListsLiveSubcommands pins that the retired experiment subcommands
// are gone and that both dispatch errors list exactly the live ones.
func TestRunListsLiveSubcommands(t *testing.T) {
	live := strings.Join(commandNames(), ", ")
	if err := run(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "("+live+")") {
		t.Errorf("missing subcommand: %v, want the list %q", err, live)
	}
	for _, name := range []string{"tables", "figures", "compare", "extensions", "scale", "bench"} {
		err := run(context.Background(), []string{name})
		if err == nil || !strings.HasSuffix(err.Error(), "(want one of "+live+")") {
			t.Errorf("%s: %v, want an unknown-subcommand error listing %q", name, err, live)
		}
	}
	err := run(context.Background(), []string{"sweep", "-degraded"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -degraded") {
		t.Errorf("sweep -degraded: %v, want an unknown-flag error", err)
	}
}

func TestBuilderFor(t *testing.T) {
	for _, name := range []string{"causalbench", "robotshop"} {
		if _, err := builderFor(name); err != nil {
			t.Errorf("builderFor(%q): %v", name, err)
		}
	}
	if _, err := builderFor("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestCmdTopologyRuns(t *testing.T) {
	if err := run(context.Background(), []string{"topology", "-app", "causalbench"}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainLocalizeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	if err := run(context.Background(), []string{
		"train", "-app", "causalbench", "-quick", "-out", modelPath,
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "causal_sets") {
		t.Fatal("model file missing causal sets")
	}
	if err := run(context.Background(), []string{
		"localize", "-app", "causalbench", "-quick",
		"-model", modelPath, "-fault", "D",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectLearnWorldsDiffPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.json")
	modelA := filepath.Join(dir, "a.json")
	modelB := filepath.Join(dir, "b.json")

	if err := run(context.Background(), []string{"collect", "-app", "causalbench", "-quick", "-out", dataPath}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"learn", "-data", dataPath, "-out", modelA}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"worlds", "-model", modelA}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"train", "-app", "causalbench", "-quick", "-seed", "7", "-out", modelB}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"diff", "-old", modelA, "-new", modelB}); err != nil {
		t.Fatal(err)
	}
	// Multi-fault localization through the CLI.
	if err := run(context.Background(), []string{
		"localize", "-app", "causalbench", "-quick", "-model", modelA, "-fault", "B,I",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalizeMissingInputs(t *testing.T) {
	if err := run(context.Background(), []string{"localize", "-model", "x.json"}); err == nil {
		t.Fatal("localize without -fault or -production accepted")
	}
	if err := run(context.Background(), []string{"learn"}); err == nil {
		t.Fatal("learn without -data accepted")
	}
	if err := run(context.Background(), []string{"worlds"}); err == nil {
		t.Fatal("worlds without -model accepted")
	}
	if err := run(context.Background(), []string{"diff", "-old", "x"}); err == nil {
		t.Fatal("diff without -new accepted")
	}
	if err := run(context.Background(), []string{"serve", "-snapshot-dir", ""}); err == nil {
		t.Fatal("serve with empty -snapshot-dir accepted")
	}
	if err := run(context.Background(), []string{"serve", "-snapshot-dir", t.TempDir(), "-model", "nope.json"}); err == nil {
		t.Fatal("serve with unreadable -model accepted")
	}
}

func TestCmdReportSectionCausalSets(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "report.md")
	if err := run(context.Background(), []string{"report", "-section", "causal-sets", "-quick", "-out", out}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(blob)
	if !strings.HasPrefix(doc, "# causalfl evaluation report") || strings.Count(doc, "\n## ") != 1 ||
		!strings.Contains(doc, "\n## §VI-B — causal sets for an intervention on B\n") {
		t.Fatalf("report -section causal-sets wrote:\n%s", doc)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	blob, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(blob)
}

// TestSweepDeterministicAcrossWorkers pins the CLI-level determinism
// contract: `causalfl sweep` must print byte-identical output whether the
// seed campaigns run serially or on a saturated pool.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	sweep := func(workers string) string {
		return captureStdout(t, func() error {
			return run(context.Background(), []string{
				"sweep", "-app", "causalbench", "-quick", "-seeds", "3", "-workers", workers,
			})
		})
	}
	serial := sweep("1")
	pooled := sweep("8")
	if serial == "" {
		t.Fatal("sweep produced no output")
	}
	if serial != pooled {
		t.Fatalf("sweep output differs between -workers=1 and -workers=8:\n--- serial ---\n%s\n--- pooled ---\n%s", serial, pooled)
	}
}
