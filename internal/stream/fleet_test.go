package stream

import (
	"context"
	"math"
	"runtime"
	"testing"

	"causalfl/internal/sim"
)

// The fleet shape the scale benchmarks use: 4096 services × 8 metrics, a
// 384-value baseline per pair, window 8, and a sparse steady state of 64
// reporting services per hop after 8 dense warm-up hops. The fault sits on
// service 0, whose +5 shift clears the guard's tolerance, so the vote runs.
const (
	fleetServices = 4096
	fleetMetrics  = 8
	fleetBaseline = 384
	fleetWindow   = 8
	fleetWarmup   = 8
	fleetActive   = 64
	fleetCycle    = 64 // steady-state hops replayed in cycles
)

// newFleetSynth generates the fleet workload, or skips under -short: the
// baselines alone are ~100 MB.
func newFleetSynth(tb testing.TB) *SynthWorkload {
	tb.Helper()
	if testing.Short() {
		tb.Skip("4096-service fleet skipped in -short mode")
	}
	w, err := NewSynth(SynthConfig{
		Services: fleetServices, Metrics: fleetMetrics, BaselineLen: fleetBaseline,
		Hops: fleetWarmup + fleetCycle, Seed: 1,
		FaultService: 0, FaultAfter: fleetWarmup,
		ActiveServices: fleetActive, Warmup: fleetWarmup,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// warmFleetDetector builds the Localizer's detector configuration over the
// fleet baseline and feeds it the warm-up hops and one full steady-state
// cycle, so every buffer a steady hop reuses has reached its size.
func warmFleetDetector(tb testing.TB, w *SynthWorkload) *Detector {
	tb.Helper()
	d, err := NewDetector(w.Baseline, WithWindow(fleetWindow), WithTolerant(true), WithWorkers(1))
	if err != nil {
		tb.Fatal(err)
	}
	for _, hop := range w.Hops {
		if err := d.ObserveHop(hop); err != nil {
			tb.Fatal(err)
		}
		if err := d.flush(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// steadyHop returns the i-th steady-state hop of the cycle.
func steadyHop(w *SynthWorkload, i int) map[string]map[string]float64 {
	return w.Hops[fleetWarmup+i%fleetCycle]
}

// TestDetectorSteadyHopAllocatesNothing: once warm, a hop's ingest and the
// flush that recomputes its dirty pairs allocate nothing at fleet scale.
func TestDetectorSteadyHopAllocatesNothing(t *testing.T) {
	w := newFleetSynth(t)
	d := warmFleetDetector(t, w)
	ctx := context.Background()
	i := 0
	allocs := testing.AllocsPerRun(2*fleetCycle, func() {
		if err := d.ObserveHop(steadyHop(w, i)); err != nil {
			t.Fatal(err)
		}
		if err := d.flush(ctx); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady hop allocates %v times, want 0", allocs)
	}
}

// BenchmarkDetectorObserveHop4096 times one steady-state hop's ingest plus
// the flush of the pairs it touched: the detector's whole per-hop cost
// before the per-metric detections are read.
func BenchmarkDetectorObserveHop4096(b *testing.B) {
	w := newFleetSynth(b)
	d := warmFleetDetector(b, w)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ObserveHop(steadyHop(w, i)); err != nil {
			b.Fatal(err)
		}
		if err := d.flush(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalizerStep4096 times one steady-state Localizer.Step on the
// fleet: ingest, flush, per-metric detections, vote and hysteresis.
func BenchmarkLocalizerStep4096(b *testing.B) {
	w := newFleetSynth(b)
	loc, err := NewLocalizer(w.Model(), WithWindow(fleetWindow), WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const hopEvery = sim.Time(30e9)
	for h, hop := range w.Hops {
		if _, err := loc.Step(ctx, sim.Time(h)*hopEvery, hop); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.Time(len(w.Hops)+i) * hopEvery
		if _, err := loc.Step(ctx, at, steadyHop(w, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// newRetentionSynth is the 512-service × 8-metric × 384-value workload the
// memory and aliasing tests share: a 12.6 MB baseline, a fault on service 0
// after 8 dense hops, then a sparse steady state.
func newRetentionSynth(tb testing.TB) *SynthWorkload {
	tb.Helper()
	w, err := NewSynth(SynthConfig{
		Services: 512, Metrics: fleetMetrics, BaselineLen: fleetBaseline,
		Hops: 24, Seed: 3, FaultService: 0, FaultAfter: fleetWarmup,
		ActiveServices: fleetActive, Warmup: fleetWarmup,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDetectorRetainsNoBaselineCopy: an exact-mode detector reads its
// baseline series in place, so what it retains is its windows and per-pair
// records — under a tenth of the baseline's bytes — not a second copy of
// the baseline.
func TestDetectorRetainsNoBaselineCopy(t *testing.T) {
	w := newRetentionSynth(t)
	baseBytes := uint64(len(w.Services) * len(w.MetricNames) * fleetBaseline * 8)
	before := heapInUse()
	d, err := NewDetector(w.Baseline, WithWindow(fleetWindow), WithTolerant(true))
	if err != nil {
		t.Fatal(err)
	}
	after := heapInUse()
	runtime.KeepAlive(d)
	runtime.KeepAlive(w)
	var held uint64
	if after > before {
		held = after - before
	}
	if held*10 >= baseBytes {
		t.Fatalf("detector retains %d B over a %d B baseline, want under 10%%", held, baseBytes)
	}
}

// TestDetectorLeavesBaselineIntact: building a detector and a localizer and
// stepping them through a faulty stream leaves every baseline series with
// the values it had, in the order it had them.
func TestDetectorLeavesBaselineIntact(t *testing.T) {
	w := newRetentionSynth(t)
	want := make(map[string]map[string][]float64)
	for m, bySvc := range w.Baseline.Data {
		want[m] = make(map[string][]float64, len(bySvc))
		for svc, series := range bySvc {
			want[m][svc] = append([]float64(nil), series...)
		}
	}
	d, err := NewDetector(w.Baseline, WithWindow(fleetWindow), WithTolerant(true), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	loc, err := NewLocalizer(w.Model(), WithWindow(fleetWindow), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for h, hop := range w.Hops {
		if err := d.ObserveHop(hop); err != nil {
			t.Fatal(err)
		}
		if _, err := d.DetectAll(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := loc.Step(ctx, sim.Time(h)*30e9, hop); err != nil {
			t.Fatal(err)
		}
	}
	for m, bySvc := range want {
		for svc, series := range bySvc {
			got := w.Baseline.Data[m][svc]
			if len(got) != len(series) {
				t.Fatalf("%s/%s: baseline length %d, was %d", m, svc, len(got), len(series))
			}
			for i := range series {
				if math.Float64bits(got[i]) != math.Float64bits(series[i]) {
					t.Fatalf("%s/%s: baseline[%d] = %v, was %v", m, svc, i, got[i], series[i])
				}
			}
		}
	}
}
