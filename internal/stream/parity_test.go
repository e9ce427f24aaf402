package stream_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/eval"
	"causalfl/internal/metrics"
	"causalfl/internal/sim"
	"causalfl/internal/stats"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// TestWorkerParityPaperApps drives both paper applications through two
// streaming pipelines fed identical ticks — one serial, one flushing across
// four workers — and requires the verdict timelines to be deeply equal: the
// worker-invariance contract, witnessed on real apps with a real fault.
func TestWorkerParityPaperApps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build apps.Builder
	}{
		{causalbench.Name, causalbench.Build},
		{robotshop.Name, robotshop.Build},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model, cfg := parityModel(t, tc.build, 31)

			pipeline := func(workers int) *stream.Pipeline {
				p, err := stream.NewPipeline(model,
					stream.WithMetricSet(cfg.Metrics),
					stream.WithGeometry(cfg.WindowLength, cfg.WindowHop),
					stream.WithWindow(6),
					stream.WithWorkers(workers),
				)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			serial, pooled := pipeline(1), pipeline(4)

			// Production: a fresh session with the first fault target broken
			// two minutes in; both pipelines see the exact same drained ticks.
			ls, err := eval.NewLiveSession(cfg, 1, 31+99)
			if err != nil {
				t.Fatal(err)
			}
			topo := parityTopology(t, tc.build)
			fault := topo.SortedFaultTargets()[0]
			ctx := context.Background()
			start := ls.Now()
			injected := false
			var serialTL, pooledTL []*stream.Verdict
			for ls.Now()-start < sim.Time(6*time.Minute) {
				if !injected && ls.Now()-start >= sim.Time(2*time.Minute) {
					if err := ls.Inject(fault, chaos.Unavailable()); err != nil {
						t.Fatal(err)
					}
					injected = true
				}
				tick := ls.Advance(cfg.SampleInterval)
				sv, err := serial.Tick(ctx, tick)
				if err != nil {
					t.Fatal(err)
				}
				pv, err := pooled.Tick(ctx, tick)
				if err != nil {
					t.Fatal(err)
				}
				serialTL = append(serialTL, sv...)
				pooledTL = append(pooledTL, pv...)
			}

			if !reflect.DeepEqual(serialTL, pooledTL) {
				t.Fatalf("4-worker pipeline diverged from serial on %s:\nserial: %+v\npooled: %+v",
					tc.name, verdictDigest(serialTL), verdictDigest(pooledTL))
			}
			// The run must be non-trivial: windows materialized and the fault
			// produced at least one non-abstained, candidate-bearing verdict.
			if len(serialTL) == 0 {
				t.Fatal("no verdicts produced; scenario misconfigured")
			}
			voted := false
			for _, v := range serialTL {
				if !v.Abstained && len(v.Candidates) > 0 {
					voted = true
					break
				}
			}
			if !voted {
				t.Fatalf("no hop produced candidates on %s; the fault never reached the detector", tc.name)
			}
		})
	}
}

// BenchmarkPipelineTick feeds recorded robotshop ticks through a warm
// stream.Pipeline: aggregation, window assembly, and each completed hop's
// Localizer.Step (one hop every three ticks). The recording is replayed in
// cycles, its stamps moved forward by the recording's length each cycle.
func BenchmarkPipelineTick(b *testing.B) {
	model, cfg := parityModel(b, robotshop.Build, 31)
	p, err := stream.NewPipeline(model,
		stream.WithMetricSet(cfg.Metrics),
		stream.WithGeometry(cfg.WindowLength, cfg.WindowHop),
		stream.WithWindow(6),
	)
	if err != nil {
		b.Fatal(err)
	}
	ls, err := eval.NewLiveSession(cfg, 1, 31+99)
	if err != nil {
		b.Fatal(err)
	}
	const recorded = 64
	ticks := make([]map[string][]telemetry.Sample, recorded)
	for i := range ticks {
		ticks[i] = ls.Advance(cfg.SampleInterval)
	}
	span := recorded * sim.Time(cfg.SampleInterval)
	ctx := context.Background()
	feed := func(i int) {
		tick := ticks[i%recorded]
		if i >= recorded {
			for _, samples := range tick {
				for j := range samples {
					samples[j].At += span
				}
			}
		}
		if _, err := p.Tick(ctx, tick); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < recorded; i++ {
		feed(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(recorded + i)
	}
}

// parityModel builds a streaming model for a paper app without a training
// campaign: a healthy session supplies the baseline snapshot, and the causal
// sets are the topology closure (services reachable along call edges in
// either direction) — a superset of any trained set, sufficient for the vote
// phase and cheap enough for a unit test.
func parityModel(t testing.TB, build apps.Builder, seed int64) (*core.Model, eval.Config) {
	t.Helper()
	ls, err := eval.NewLiveSession(eval.Options{Seed: seed, Quick: true}.Apply(eval.Config{Build: build}), 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ls.Config() // fully defaulted (metric set, geometry, intervals)
	samples := ls.Advance(3 * time.Minute)
	windows, err := telemetry.WindowsByService(samples, cfg.WindowLength, cfg.WindowHop)
	if err != nil {
		t.Fatal(err)
	}
	services := ls.Services()
	baseline, err := metrics.BuildSnapshot(windows, services, cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	topo := parityTopology(t, build)
	closure := topologyClosure(services, topo.Edges)
	sets := make(map[string]map[string][]string, len(cfg.Metrics))
	for _, m := range metrics.Names(cfg.Metrics) {
		sets[m] = closure
	}
	model := &core.Model{
		Services:   services,
		Metrics:    metrics.Names(cfg.Metrics),
		Targets:    topo.SortedFaultTargets(),
		CausalSets: sets,
		Baseline:   baseline,
		Alpha:      stats.DefaultAlpha,
	}
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	return model, cfg
}

// parityTopology instantiates the app on a throwaway engine for its static
// shape (edges, fault targets), the same trick `causalfl topology` uses.
func parityTopology(t testing.TB, build apps.Builder) *apps.App {
	t.Helper()
	a, err := build(sim.NewEngine(0))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// topologyClosure maps every service to the services reachable from it along
// call edges traversed in either direction (itself included), in the order of
// the services slice.
func topologyClosure(services []string, edges []apps.Edge) map[string][]string {
	adj := make(map[string][]string, len(services))
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	out := make(map[string][]string, len(services))
	for _, svc := range services {
		seen := map[string]bool{svc: true}
		queue := []string{svc}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range adj[cur] {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		set := make([]string, 0, len(seen))
		for _, s := range services {
			if seen[s] {
				set = append(set, s)
			}
		}
		out[svc] = set
	}
	return out
}

// verdictDigest renders a timeline compactly for failure messages.
func verdictDigest(tl []*stream.Verdict) string {
	s := ""
	for _, v := range tl {
		s += fmt.Sprintf("{at=%v cand=%v conf=%v abst=%v} ", v.At, v.Candidates, v.Confirmed, v.Abstained)
	}
	return s
}
