package sim_test

import (
	"runtime"
	"testing"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/load"
	"causalfl/internal/sim"
)

// startApp builds app on a fresh engine under the default open-loop load.
func startApp(tb testing.TB, build apps.Builder) *sim.Engine {
	tb.Helper()
	eng := sim.NewEngine(1)
	app, err := build(eng)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := load.NewGenerator(app, load.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := gen.Start(); err != nil {
		tb.Fatal(err)
	}
	return eng
}

var paperApps = []struct {
	name  string
	build apps.Builder
}{
	{causalbench.Name, causalbench.Build},
	{robotshop.Name, robotshop.Build},
}

// A warm simulation allocates at most one object per executed event: the
// events live by value in the engine's heap, request records come from the
// cluster's pool, and no hop builds a closure. What allocation remains is
// the load generator's and the apps' own callbacks.
func TestSimulatorAllocatesAtMostOncePerEvent(t *testing.T) {
	for _, tc := range paperApps {
		t.Run(tc.name, func(t *testing.T) {
			eng := startApp(t, tc.build)
			eng.Run(30 * time.Second) // grow the heap, pools and queues
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			events := eng.Run(eng.Now() + time.Minute)
			runtime.ReadMemStats(&after)
			if events == 0 {
				t.Fatal("no events executed")
			}
			perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
			t.Logf("%d events, %.3f allocations per event", events, perEvent)
			if perEvent > 1 {
				t.Fatalf("%.3f allocations per executed event, want at most 1", perEvent)
			}
		})
	}
}

// BenchmarkMicro_SimulatorThroughput runs one simulated second of each paper
// app under the default load per iteration, warm, and reports executed
// events per wall second.
func BenchmarkMicro_SimulatorThroughput(b *testing.B) {
	for _, tc := range paperApps {
		b.Run(tc.name, func(b *testing.B) {
			eng := startApp(b, tc.build)
			eng.Run(30 * time.Second)
			events := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events += eng.Run(eng.Now() + time.Second)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
