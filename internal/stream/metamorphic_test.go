package stream_test

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"causalfl/internal/core"
	"causalfl/internal/sim"
	"causalfl/internal/stats"
	"causalfl/internal/stream"
)

// shuffledModel returns a copy of model whose every baseline series is
// shuffled with a seeded RNG, walking the pairs in the baseline's declared
// order so the shuffle is reproducible.
func shuffledModel(t *testing.T, model *core.Model, seed int64) *core.Model {
	t.Helper()
	out := *model
	out.Baseline = model.Baseline.Clone()
	rng := rand.New(rand.NewSource(seed))
	moved := false
	for _, m := range out.Baseline.Metrics {
		for _, svc := range out.Baseline.Services {
			series := out.Baseline.Data[m][svc]
			rng.Shuffle(len(series), func(i, j int) { series[i], series[j] = series[j], series[i] })
			moved = moved || !slices.IsSorted(series)
		}
	}
	if !moved {
		t.Fatal("shuffle left every series sorted")
	}
	return &out
}

// mustMarshal renders v as JSON, which spells every float64 uniquely, so
// equal bytes mean bit-identical results.
func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShuffledBaselineIsInvisible is the metamorphic check behind the
// sorted-baseline invariant: every consumer of a model's baseline runs an
// order-free test, so shuffling each baseline series must leave batch
// Localize, stream Localizer.Step and KSBaselines.GuardedPValue
// bit-identical to the sorted model. The shuffled model's series take the
// stream detector's private-copy path, and must keep their shuffled order.
func TestShuffledBaselineIsInvisible(t *testing.T) {
	w, err := stream.NewSynth(stream.SynthConfig{
		Services: 12, Metrics: 3, BaselineLen: 48, Hops: 40, Seed: 5,
		FaultService: 0, FaultAfter: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	sorted := w.Model()
	shuffled := shuffledModel(t, sorted, 9)
	before := shuffled.Baseline.Clone()

	ctx := context.Background()
	const window = 8
	locSorted, err := stream.NewLocalizer(sorted, stream.WithWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	locShuffled, err := stream.NewLocalizer(shuffled, stream.WithWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := core.NewLocalizer(core.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	confirmed := false
	for h, hop := range w.Hops {
		at := sim.Time(h) * 30e9
		want, err := locSorted.Step(ctx, at, hop)
		if err != nil {
			t.Fatal(err)
		}
		got, err := locShuffled.Step(ctx, at, hop)
		if err != nil {
			t.Fatal(err)
		}
		if g, s := mustMarshal(t, got), mustMarshal(t, want); g != s {
			t.Fatalf("hop %d: shuffled model's verdict %s, sorted %s", h, g, s)
		}
		confirmed = confirmed || slices.Contains(want.Confirmed, w.Services[0])

		production := locSorted.Detector().Materialize()
		wantL, err := batch.Localize(ctx, sorted, production)
		if err != nil {
			t.Fatal(err)
		}
		gotL, err := batch.Localize(ctx, shuffled, production)
		if err != nil {
			t.Fatal(err)
		}
		if g, s := mustMarshal(t, gotL), mustMarshal(t, wantL); g != s {
			t.Fatalf("hop %d: batch Localize with the shuffled model %s, sorted %s", h, g, s)
		}
	}
	if !confirmed {
		t.Fatal("the fault was never confirmed: the comparison saw no detection")
	}

	// The raw statistic, pair by pair, on the last window of each pair and
	// at two guard tolerances: the default and one tight enough that the
	// KS test runs.
	n := len(sorted.Metrics) * len(sorted.Services)
	setSorted, setShuffled := stats.NewKSBaselines(n), stats.NewKSBaselines(n)
	slab, err := stats.NewWindowSlab(n, window)
	if err != nil {
		t.Fatal(err)
	}
	p := 0
	for _, m := range sorted.Metrics {
		for _, svc := range sorted.Services {
			if err := setSorted.Add(sorted.Baseline.Data[m][svc]); err != nil {
				t.Fatal(err)
			}
			if err := setShuffled.Add(shuffled.Baseline.Data[m][svc]); err != nil {
				t.Fatal(err)
			}
			for _, hop := range w.Hops[len(w.Hops)-window:] {
				slab.Push(p, hop[m][svc])
			}
			for _, tol := range []float64{0, 1e-3} {
				want, err := setSorted.GuardedPValue(p, slab.Sorted(p), tol)
				if err != nil {
					t.Fatal(err)
				}
				got, err := setShuffled.GuardedPValue(p, slab.Sorted(p), tol)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s tol %v: shuffled p = %v, sorted %v", m, svc, tol, got, want)
				}
			}
			p++
		}
	}

	for _, m := range before.Metrics {
		for _, svc := range before.Services {
			got, was := shuffled.Baseline.Data[m][svc], before.Data[m][svc]
			for i := range was {
				if math.Float64bits(got[i]) != math.Float64bits(was[i]) {
					t.Fatalf("%s/%s: shuffled baseline reordered at %d", m, svc, i)
				}
			}
		}
	}
}
