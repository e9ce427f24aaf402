package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/sim"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// snapFixture is a compact degraded-stream scenario for the snapshot codec:
// three services scraped every 5s into 30s/15s windows, a CPU fault in svc-b
// from tick 26, scrape gaps on svc-c (every 9th tick missing, recovered with
// a spanning sample) and NaN corruption on svc-a's CPU every 13th tick — so
// an exported state carries partially-filled aggregator buffers, gap spans,
// non-finite ring values and live hysteresis history all at once.
type snapFixture struct {
	set   []metrics.Metric
	model *core.Model
	// ticks[i] is production tick i+1: service -> samples.
	ticks []map[string][]telemetry.Sample
}

const (
	snapInterval = 5 * time.Second
	snapLength   = 30 * time.Second
	snapHop      = 15 * time.Second
	snapTicks    = 50
)

func buildSnapFixture() (*snapFixture, error) {
	services := []string{"svc-a", "svc-b", "svc-c"}
	set := []metrics.Metric{metrics.MsgRate, metrics.CPU}

	counters := func(si, tick int, faulty bool) sim.Counters {
		c := sim.Counters{
			LogMessages: uint64(100 + 10*si + (tick*7+si*3)%5),
			CPUSeconds:  1.0 + 0.1*float64(si) + 0.01*float64((tick*11+si*5)%7),
		}
		if faulty {
			c.CPUSeconds *= 2.1
		}
		return c
	}

	baseSamples := make(map[string][]telemetry.Sample, len(services))
	for tick := 1; tick <= 40; tick++ {
		at := sim.Time(tick) * sim.Time(snapInterval)
		for si, svc := range services {
			baseSamples[svc] = append(baseSamples[svc], telemetry.Sample{
				At: at, Deltas: counters(si, tick, false), Span: 1,
			})
		}
	}
	baseWindows, err := telemetry.WindowsByService(baseSamples, snapLength, snapHop)
	if err != nil {
		return nil, err
	}
	baseline, err := metrics.BuildSnapshot(baseWindows, services, set)
	if err != nil {
		return nil, err
	}

	// Singleton causal sets: every service explains only itself.
	sets := make(map[string]map[string][]string, len(set))
	for _, m := range metrics.Names(set) {
		byTarget := make(map[string][]string, len(services))
		for _, svc := range services {
			byTarget[svc] = []string{svc}
		}
		sets[m] = byTarget
	}
	model := &core.Model{
		Services:   services,
		Metrics:    metrics.Names(set),
		Targets:    append([]string(nil), services...),
		CausalSets: sets,
		Baseline:   baseline,
		Alpha:      0.05,
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}

	var ticks []map[string][]telemetry.Sample
	gap := 0
	for tick := 41; tick <= 40+snapTicks; tick++ {
		at := sim.Time(tick) * sim.Time(snapInterval)
		one := make(map[string][]telemetry.Sample, len(services))
		for si, svc := range services {
			smp := telemetry.Sample{At: at, Deltas: counters(si, tick, tick > 65 && si == 1), Span: 1}
			switch {
			case si == 2 && tick%9 == 0:
				smp = telemetry.Sample{At: at, Missing: true}
				gap++
			case si == 2:
				smp.Span = 1 + gap
				gap = 0
			case si == 0 && tick%13 == 0:
				smp.Deltas.CPUSeconds = math.NaN()
				smp.Corrupt = true
			}
			one[svc] = []telemetry.Sample{smp}
		}
		ticks = append(ticks, one)
	}
	return &snapFixture{set: set, model: model, ticks: ticks}, nil
}

// newPipeline builds a fresh pipeline over the fixture.
func (fx *snapFixture) newPipeline(opts ...stream.Option) (*stream.Pipeline, error) {
	base := []stream.Option{stream.WithMetricSet(fx.set), stream.WithGeometry(snapLength, snapHop)}
	return stream.NewPipeline(fx.model, append(base, opts...)...)
}

// runTicks feeds ticks[from:to] and returns the emitted verdicts.
func runTicks(t *testing.T, p *stream.Pipeline, ticks []map[string][]telemetry.Sample) []*stream.Verdict {
	t.Helper()
	var out []*stream.Verdict
	for i, tick := range ticks {
		vs, err := p.Tick(context.Background(), tick)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		out = append(out, vs...)
	}
	return out
}

// TestPipelineSnapshotResume is the codec's core contract: export at an
// arbitrary mid-stream point, serialize, restore into a fresh pipeline, and
// the resumed verdict timeline — and every later snapshot — is byte-identical
// to a run that never stopped. Exercised across split points (including
// mid-hysteresis and mid-gap), worker counts and both decision modes.
func TestPipelineSnapshotResume(t *testing.T) {
	fx, err := buildSnapFixture()
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		opts []stream.Option
	}{
		{"alpha-w1", []stream.Option{stream.WithWindow(6), stream.WithWorkers(1)}},
		{"alpha-w4", []stream.Option{stream.WithWindow(6), stream.WithWorkers(4)}},
		{"fdr-w8", []stream.Option{stream.WithWindow(6), stream.WithWorkers(8), stream.WithFDR(0.1)}},
	}
	splits := []int{0, 1, 9, 17, 26, 33, snapTicks - 1}

	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			full, err := fx.newPipeline(mode.opts...)
			if err != nil {
				t.Fatal(err)
			}
			wantTimeline := runTicks(t, full, fx.ticks)
			if len(wantTimeline) < 10 {
				t.Fatalf("uninterrupted run emitted only %d verdicts; fixture misconfigured", len(wantTimeline))
			}
			wantJSON := mustJSON(t, wantTimeline)
			wantFinal := mustJSON(t, full.ExportState())
			wantStats := full.Stats()

			for _, split := range splits {
				first, err := fx.newPipeline(mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
				head := runTicks(t, first, fx.ticks[:split])

				// Serialize through JSON — the exact path serve's snapshots
				// take — and require the encoding to be stable under a
				// decode/encode round trip.
				blob := mustJSON(t, first.ExportState())
				var st stream.PipelineState
				if err := json.Unmarshal(blob, &st); err != nil {
					t.Fatalf("split %d: decode: %v", split, err)
				}
				if err := st.Validate(); err != nil {
					t.Fatalf("split %d: exported state fails validation: %v", split, err)
				}
				if again := mustJSON(t, &st); !bytes.Equal(blob, again) {
					t.Fatalf("split %d: encoding not stable under round trip:\n%s\nvs\n%s", split, blob, again)
				}

				second, err := fx.newPipeline(mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := second.RestoreState(&st); err != nil {
					t.Fatalf("split %d: restore: %v", split, err)
				}
				tail := runTicks(t, second, fx.ticks[split:])

				gotJSON := mustJSON(t, append(head, tail...))
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("split %d: resumed timeline diverges from uninterrupted run:\n%s\nvs\n%s", split, gotJSON, wantJSON)
				}
				if gotFinal := mustJSON(t, second.ExportState()); !bytes.Equal(gotFinal, wantFinal) {
					t.Fatalf("split %d: final state diverges:\n%s\nvs\n%s", split, gotFinal, wantFinal)
				}
				if gotStats := second.Stats(); !reflect.DeepEqual(gotStats.Aggregator.SvcAggStats, wantStats.Aggregator.SvcAggStats) ||
					gotStats.Hops != wantStats.Hops || gotStats.LastVerdictAt != wantStats.LastVerdictAt {
					t.Fatalf("split %d: stats diverge: %+v vs %+v", split, gotStats, wantStats)
				}
			}
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotRestoreRejects drives corrupted snapshots through
// Validate/RestoreState and requires an explicit error for each — a damaged
// snapshot must never silently seed a diverging pipeline.
func TestSnapshotRestoreRejects(t *testing.T) {
	fx, err := buildSnapFixture()
	if err != nil {
		t.Fatal(err)
	}
	opts := []stream.Option{stream.WithWindow(6)}
	donor, err := fx.newPipeline(opts...)
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, donor, fx.ticks[:20])
	pristine := mustJSON(t, donor.ExportState())

	state := func() *stream.PipelineState {
		var st stream.PipelineState
		if err := json.Unmarshal(pristine, &st); err != nil {
			t.Fatal(err)
		}
		return &st
	}
	cases := []struct {
		name   string
		mutate func(*stream.PipelineState)
	}{
		{"future version", func(st *stream.PipelineState) { st.Version = stream.SnapshotVersion + 1 }},
		{"window mismatch", func(st *stream.PipelineState) { st.Window++ }},
		{"geometry mismatch", func(st *stream.PipelineState) { st.Length *= 2 }},
		{"unknown pair metric", func(st *stream.PipelineState) {
			st.Pairs["no_such_metric"] = map[string]stream.PairState{"svc-a": st.Pairs["cpu"]["svc-a"]}
		}},
		{"pair value count inconsistent", func(st *stream.PipelineState) {
			ps := st.Pairs["cpu"]["svc-a"]
			ps.Pushed += 3
			st.Pairs["cpu"]["svc-a"] = ps
		}},
		{"unknown aggregator service", func(st *stream.PipelineState) {
			st.Aggregator["svc-zz"] = st.Aggregator["svc-a"]
		}},
		{"unknown history service", func(st *stream.PipelineState) {
			st.History = append(st.History, []string{"svc-zz"})
		}},
		{"history beyond horizon", func(st *stream.PipelineState) {
			for i := 0; i < 10; i++ {
				st.History = append(st.History, []string{})
			}
		}},
		{"unsorted history set", func(st *stream.PipelineState) {
			st.History = append(st.History, []string{"svc-b", "svc-a"})
		}},
		{"pending start mismatch", func(st *stream.PipelineState) {
			start := sim.Time(time.Hour)
			st.Pending = append(st.Pending, stream.PendingState{
				Start: start,
				Windows: map[string]stream.WindowState{
					"svc-a": {Start: start + sim.Time(time.Second), End: start + st.Length},
				},
			})
		}},
		{"pending fully reported", func(st *stream.PipelineState) {
			start := sim.Time(time.Hour)
			ws := map[string]stream.WindowState{}
			for _, svc := range []string{"svc-a", "svc-b", "svc-c"} {
				ws[svc] = stream.WindowState{Start: start, End: start + st.Length}
			}
			st.Pending = append(st.Pending, stream.PendingState{Start: start, Windows: ws})
		}},
		{"unordered aggregator buffer", func(st *stream.PipelineState) {
			as := st.Aggregator["svc-a"]
			if len(as.Buf) < 2 {
				t.Fatal("fixture export should buffer at least two samples")
			}
			as.Buf[0], as.Buf[1] = as.Buf[1], as.Buf[0]
			st.Aggregator["svc-a"] = as
		}},
		{"cursor leads newest stamp", func(st *stream.PipelineState) {
			as := st.Aggregator["svc-a"]
			as.Buf = nil
			as.Next = as.LastAt + sim.Time(time.Second)
			st.Aggregator["svc-a"] = as
		}},
		{"cursor trails a full window", func(st *stream.PipelineState) {
			as := st.Aggregator["svc-a"]
			as.Buf = nil
			as.Next = as.LastAt - st.Length
			st.Aggregator["svc-a"] = as
		}},
		{"stamp out of range", func(st *stream.PipelineState) {
			as := st.Aggregator["svc-a"]
			as.Buf = nil
			as.LastAt = sim.Time(1) << 62
			as.Next = as.LastAt
			st.Aggregator["svc-a"] = as
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := state()
			tc.mutate(st)
			fresh, err := fx.newPipeline(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.RestoreState(st); err == nil {
				t.Fatal("corrupted snapshot accepted")
			}
		})
	}

	t.Run("nil state", func(t *testing.T) {
		var st *stream.PipelineState
		if err := st.Validate(); err == nil {
			t.Fatal("nil state validated")
		}
	})
	t.Run("restore into used pipeline", func(t *testing.T) {
		used, err := fx.newPipeline(opts...)
		if err != nil {
			t.Fatal(err)
		}
		runTicks(t, used, fx.ticks[:1])
		if err := used.RestoreState(state()); err == nil {
			t.Fatal("restore into a non-fresh pipeline accepted")
		}
	})
}

// TestFloat64JSON pins the non-finite float encoding: the three specials
// round-trip through their string forms, finite values through shortest
// numbers, and anything else is an error.
func TestFloat64JSON(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{math.NaN(), `"NaN"`},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
		{1.5, `1.5`},
		{0, `0`},
		{1e300, `1e+300`},
		{0.1, `0.1`},
	}
	for _, tc := range cases {
		b, err := json.Marshal(stream.Float64(tc.v))
		if err != nil {
			t.Fatalf("%v: %v", tc.v, err)
		}
		if string(b) != tc.want {
			t.Fatalf("%v encoded as %s, want %s", tc.v, b, tc.want)
		}
		var back stream.Float64
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if g, w := float64(back), tc.v; g != w && !(math.IsNaN(g) && math.IsNaN(w)) { //nolint:staticcheck
			t.Fatalf("%s decoded to %v, want %v", b, g, w)
		}
	}
	for _, bad := range []string{`"Infinity"`, `"nan"`, `""`, `"1.5x"`, `true`, `[1]`, `{}`} {
		var f stream.Float64
		if err := json.Unmarshal([]byte(bad), &f); err == nil {
			t.Fatalf("%s accepted", bad)
		}
	}
}

// FuzzSnapshotRoundTrip throws arbitrary bytes at the codec: anything that
// decodes and validates must re-encode stably (encode∘decode∘encode =
// encode), and restoring it into a fresh pipeline must either succeed or
// return an error — never panic, never hang.
func FuzzSnapshotRoundTrip(f *testing.F) {
	fx, err := buildSnapFixture()
	if err != nil {
		f.Fatal(err)
	}
	opts := []stream.Option{stream.WithWindow(6)}

	// Seed with honest exports at several depths (empty, mid-gap, post-fault
	// with NaN in the rings) and a few structured hostiles.
	for _, split := range []int{0, 3, 17, 40} {
		p, err := fx.newPipeline(opts...)
		if err != nil {
			f.Fatal(err)
		}
		for _, tick := range fx.ticks[:split] {
			if _, err := p.Tick(context.Background(), tick); err != nil {
				f.Fatal(err)
			}
		}
		blob, err := json.Marshal(p.ExportState())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"length":1,"hop":1,"window":1}`))
	f.Add([]byte(fmt.Sprintf(`{"version":1,"length":%d,"hop":%d,"window":6,"pairs":{"cpu":{"svc-a":{"values":["NaN"],"pushed":1}}}}`,
		snapLength, snapHop)))
	f.Add([]byte(`{"version":1,"length":30000000000,"hop":15000000000,"window":6,"aggregator":{"svc-a":{"next":4611686018427387903,"last_at":4611686018427387903,"stats":{"accepted":2,"out_of_order":0,"dead":0,"windows":0}}}}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st stream.PipelineState
		if err := json.Unmarshal(data, &st); err != nil {
			return
		}
		if err := st.Validate(); err != nil {
			return
		}
		enc1, err := json.Marshal(&st)
		if err != nil {
			t.Fatalf("validated state failed to encode: %v", err)
		}
		var st2 stream.PipelineState
		if err := json.Unmarshal(enc1, &st2); err != nil {
			t.Fatalf("own encoding failed to decode: %v", err)
		}
		if err := st2.Validate(); err != nil {
			t.Fatalf("own encoding failed validation: %v", err)
		}
		enc2, err := json.Marshal(&st2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not stable:\n%s\nvs\n%s", enc1, enc2)
		}

		p, err := fx.newPipeline(opts...)
		if err != nil {
			t.Fatal(err)
		}
		// Success or error are both fine; panics and hangs are not.
		if err := p.RestoreState(&st); err == nil {
			if _, err := p.Tick(context.Background(), nil); err != nil {
				_ = err // a restored-but-odd state may legitimately reject ticks
			}
		}
	})
}
