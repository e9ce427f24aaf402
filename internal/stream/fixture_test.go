package stream_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// fixtureSplit is where testdata/pipeline-state-v1.json was exported: after
// snapFixture's tick 67 (index 26), which completes svc-a's and svc-b's
// window [305s, 335s] while svc-c's sample of that tick is held back to
// the next tick. The state is mid-window: every service has buffered
// samples (svc-a's include a NaN), one window start is pending on svc-c,
// and the hysteresis history is mid-streak on the svc-b fault.
const fixtureSplit = 27

// fixtureTicks is snapFixture's stream with svc-c's sample of tick
// index fixtureSplit-1 delivered one tick late, alongside its own.
func fixtureTicks(fx *snapFixture) []map[string][]telemetry.Sample {
	ticks := make([]map[string][]telemetry.Sample, len(fx.ticks))
	for i, tick := range fx.ticks {
		ticks[i] = make(map[string][]telemetry.Sample, len(tick))
		for svc, ss := range tick {
			ticks[i][svc] = ss
		}
	}
	held := ticks[fixtureSplit-1]["svc-c"]
	delete(ticks[fixtureSplit-1], "svc-c")
	ticks[fixtureSplit]["svc-c"] = append(append([]telemetry.Sample(nil), held...), ticks[fixtureSplit]["svc-c"]...)
	return ticks
}

// TestPipelineStateV1Fixture: a version-1 state committed as a file, not
// regenerated by the code under test, resumes exactly. RestoreState of the
// fixture and the remaining ticks give the verdicts, Stats and re-exported
// bytes of a pipeline that never stopped. Regenerate with -update only when
// the codec version changes.
func TestPipelineStateV1Fixture(t *testing.T) {
	fx, err := buildSnapFixture()
	if err != nil {
		t.Fatal(err)
	}
	ticks := fixtureTicks(fx)
	opts := []stream.Option{stream.WithWindow(6), stream.WithWorkers(1)}

	full, err := fx.newPipeline(opts...)
	if err != nil {
		t.Fatal(err)
	}
	head := runTicks(t, full, ticks[:fixtureSplit])
	atSplit := mustJSON(t, full.ExportState())
	tail := runTicks(t, full, ticks[fixtureSplit:])

	path := filepath.Join("testdata", "pipeline-state-v1.json")
	if *update {
		indented, err := json.MarshalIndent(json.RawMessage(atSplit), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(indented, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var st stream.PipelineState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) != 1 || len(st.Pending[0].Windows) != 2 || len(st.Aggregator) != 3 || len(st.History) == 0 {
		t.Fatalf("fixture is not mid-window: %d pending, %d aggregator services, %d history sets",
			len(st.Pending), len(st.Aggregator), len(st.History))
	}
	for svc, as := range st.Aggregator {
		if len(as.Buf) == 0 {
			t.Fatalf("fixture buffers no samples for %s", svc)
		}
	}
	if got := mustJSON(t, &st); !bytes.Equal(got, atSplit) {
		t.Fatalf("the pipeline no longer exports the fixture at tick %d:\n%s\nfixture:\n%s", fixtureSplit, atSplit, got)
	}

	resumed, err := fx.newPipeline(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(&st); err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, resumed.ExportState()); !bytes.Equal(got, atSplit) {
		t.Fatalf("restored fixture re-exports differently:\n%s\nfixture:\n%s", got, atSplit)
	}
	if len(head) == 0 || len(tail) == 0 {
		t.Fatalf("split leaves %d verdicts before and %d after; fixture misplaced", len(head), len(tail))
	}
	if got, want := mustJSON(t, runTicks(t, resumed, ticks[fixtureSplit:])), mustJSON(t, tail); !bytes.Equal(got, want) {
		t.Fatalf("resumed verdicts diverge:\n%s\nvs\n%s", got, want)
	}
	if got, want := resumed.Stats(), full.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed stats %+v, uninterrupted %+v", got, want)
	}
	if got, want := mustJSON(t, resumed.ExportState()), mustJSON(t, full.ExportState()); !bytes.Equal(got, want) {
		t.Fatalf("resumed final state diverges:\n%s\nvs\n%s", got, want)
	}
}
