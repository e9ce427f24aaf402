package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadInvocations(t *testing.T) {
	cases := [][]string{
		nil,                         // no subcommand
		{"frobnicate"},              // unknown subcommand
		{"tables", "-table", "7"},   // unknown table
		{"figures", "-fig", "9"},    // unknown figure
		{"topology", "-app", "zzz"}, // unknown app
		{"localize"},                // missing -model/-fault
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

func TestCmdFiguresCausalSets(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	if err := run(context.Background(), []string{"figures", "-fig", "causal-sets", "-quick"}); err != nil {
		t.Fatal(err)
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

// TestCmdBenchStreamDetectsFault runs the streaming sweep at two small
// fleet sizes. The command fails unless the last hop's verdict voted and
// named the injected fault, so this pins both that check and a fault
// placement the guarded test can detect.
func TestCmdBenchStreamDetectsFault(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark sweep skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "stream.json")
	if err := run(context.Background(), []string{"bench", "-stream", "-services", "64,200", "-baseline", "24", "-workers", "1", "-out", out}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Entries []struct {
			Engine   string `json:"engine"`
			Services int    `json:"services"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("bench JSON: %v", err)
	}
	streams := 0
	for _, e := range doc.Entries {
		if e.Engine == "stream" {
			streams++
		}
	}
	if streams != 2 {
		t.Fatalf("bench JSON has %d stream entries, want one per fleet size", streams)
	}
}

// TestCmdBenchWritesJSON smoke-tests the bench subcommand's JSON artifact.
func TestCmdBenchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(context.Background(), []string{"bench", "-quick", "-out", out}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		GOMAXPROCS int `json:"gomaxprocs"`
		Entries    []struct {
			Stage   string  `json:"stage"`
			Workers int     `json:"workers"`
			WallMS  float64 `json:"wall_ms"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("bench JSON: %v", err)
	}
	if len(doc.Entries) < 3 {
		t.Fatalf("bench JSON has %d entries, want at least learn/localize/campaign", len(doc.Entries))
	}
	stages := map[string]bool{}
	for _, e := range doc.Entries {
		stages[e.Stage] = true
		if e.WallMS < 0 {
			t.Fatalf("stage %s workers=%d has negative wall time", e.Stage, e.Workers)
		}
	}
	for _, want := range []string{"learn", "localize", "campaign"} {
		if !stages[want] {
			t.Fatalf("bench JSON missing stage %q", want)
		}
	}
}
