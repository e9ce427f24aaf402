package stream_test

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"causalfl/internal/core"
	"causalfl/internal/sim"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// synthSamples builds a deterministic tick series with scrape gaps and
// recovery spans, the shapes degraded collection produces.
func synthSamples(n int, seed int64) []telemetry.Sample {
	rng := rand.New(rand.NewSource(seed))
	interval := 5 * time.Second
	out := make([]telemetry.Sample, 0, n)
	missedSince := 0
	for i := 1; i <= n; i++ {
		at := sim.Time(i) * sim.Time(interval)
		if rng.Intn(10) == 0 {
			out = append(out, telemetry.Sample{At: at, Missing: true})
			missedSince++
			continue
		}
		span := 1 + missedSince
		missedSince = 0
		out = append(out, telemetry.Sample{
			At: at,
			Deltas: sim.Counters{
				LogMessages: uint64(90 + rng.Intn(20)),
				RxPackets:   uint64(200 + rng.Intn(30)),
				CPUSeconds:  0.8 + 0.05*rng.NormFloat64(),
			},
			Span: span,
		})
	}
	return out
}

// TestAggregatorMatchesHoppingWindows feeds a gappy sample series one tick
// at a time and checks, after every tick, that the windows emitted so far
// are exactly telemetry.HoppingWindows over the materialized prefix —
// including the bit-identical CPUSeconds sums (same ascending add order) and
// the coverage accounting.
func TestAggregatorMatchesHoppingWindows(t *testing.T) {
	const length, hop = 30 * time.Second, 15 * time.Second
	samples := synthSamples(80, 21)

	agg, err := stream.NewAggregator(length, hop)
	if err != nil {
		t.Fatal(err)
	}
	var got []telemetry.Window
	for i, smp := range samples {
		got = append(got, agg.Ingest("svc", []telemetry.Sample{smp})...)
		want, err := telemetry.HoppingWindows(samples[:i+1], length, hop)
		if err != nil {
			t.Fatalf("tick %d: batch: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: incremental emitted %d windows %+v, batch %d %+v",
				i, len(got), got, len(want), want)
		}
	}
	if len(got) == 0 {
		t.Fatal("scenario produced no windows; not a meaningful conformance run")
	}
}

func TestAggregatorValidation(t *testing.T) {
	if _, err := stream.NewAggregator(-time.Second, time.Second); err == nil {
		t.Fatal("negative length accepted")
	}
	if _, err := stream.NewAggregator(time.Second, 2*time.Second); err == nil {
		t.Fatal("hop > length accepted")
	}
	agg, err := stream.NewAggregator(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Length() != telemetry.DefaultWindowLength || agg.Hop() != telemetry.DefaultWindowHop {
		t.Fatalf("zero geometry did not select defaults: %v/%v", agg.Length(), agg.Hop())
	}
	// Out-of-order samples are dropped and counted, not applied and not an
	// error: a replaying producer must not kill the stream.
	agg.Ingest("svc", []telemetry.Sample{{At: 10}, {At: 5}})
	st := agg.Stats()
	if st.Accepted != 1 || st.OutOfOrder != 1 {
		t.Fatalf("accounting after out-of-order ingest: %+v", st.SvcAggStats)
	}
	if per := st.PerService["svc"]; per.OutOfOrder != 1 {
		t.Fatalf("per-service accounting missing the drop: %+v", per)
	}
	// The guard keys on the newest accepted stamp, so an exact replay of the
	// accepted sample is also dropped.
	agg.Ingest("svc", []telemetry.Sample{{At: 10}})
	if st := agg.Stats(); st.OutOfOrder != 2 {
		t.Fatalf("replayed stamp not dropped: %+v", st.SvcAggStats)
	}
}

// TestLocalizerHysteresis drives a fault through the streaming localizer and
// checks the K-of-N confirmation discipline: no confirmation while healthy,
// no confirmation from a single anomalous hop's flap, confirmation within K
// hops of a persistent fault.
func TestLocalizerHysteresis(t *testing.T) {
	w, err := stream.NewSynth(stream.SynthConfig{
		Services: 4, Metrics: 2, BaselineLen: 10, Hops: 20,
		Seed: 9, FaultService: 1, FaultAfter: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	sl, err := stream.NewLocalizer(w.Model(), stream.WithWindow(6), stream.WithHysteresis(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	faulty := w.Services[1]
	var confirmedAt = -1
	for h, hop := range w.Hops {
		v, err := sl.Step(ctx, sim.Time(h), hop)
		if err != nil {
			t.Fatal(err)
		}
		if h < 12 && len(v.Confirmed) > 0 {
			// Before the fault has persisted K hops nothing may confirm;
			// hops 10 and 11 are the at-most-K-1 confirmation latency.
			t.Fatalf("hop %d: premature confirmation %v", h, v.Confirmed)
		}
		if confirmedAt < 0 && len(v.Confirmed) > 0 {
			confirmedAt = h
		}
	}
	if confirmedAt < 0 {
		t.Fatal("persistent fault never confirmed")
	}
	// Latency budget: the KS window needs a few post-fault values before
	// the vote flips (detection lag), plus K-1 hops of hysteresis.
	if confirmedAt > 16 {
		t.Fatalf("confirmation too late: hop %d", confirmedAt)
	}
	// The confirmed set must be exactly the faulty service by the end.
	vLast, err := sl.Step(ctx, sim.Time(len(w.Hops)), w.Hops[len(w.Hops)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(vLast.Confirmed) != 1 || vLast.Confirmed[0] != faulty {
		t.Fatalf("confirmed %v, want [%s]", vLast.Confirmed, faulty)
	}
}

func TestLocalizerOptionValidation(t *testing.T) {
	w, err := stream.NewSynth(stream.SynthConfig{Services: 2, Metrics: 1, BaselineLen: 6, Hops: 0, Seed: 1, FaultService: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model *core.Model
		opts  []stream.Option
	}{
		{"nil model", nil, []stream.Option{stream.WithWindow(4)}},
		{"zero window", w.Model(), []stream.Option{stream.WithWindow(0)}},
		{"K > N", w.Model(), []stream.Option{stream.WithWindow(4), stream.WithHysteresis(3, 2)}},
		{"out-of-range FDR", w.Model(), []stream.Option{stream.WithWindow(4), stream.WithFDR(1.5)}},
		{"out-of-range alpha", w.Model(), []stream.Option{stream.WithWindow(4), stream.WithAlpha(1.5)}},
		{"negative worker count", w.Model(), []stream.Option{stream.WithWindow(4), stream.WithWorkers(-1)}},
		{"zero min samples", w.Model(), []stream.Option{stream.WithWindow(4), stream.WithMinSamples(0)}},
		{"nil option", w.Model(), []stream.Option{stream.WithWindow(4), nil}},
	} {
		// Every refusal names the package that refused it.
		if _, err := stream.NewLocalizer(tc.model, tc.opts...); err == nil || !strings.HasPrefix(err.Error(), "stream: ") {
			t.Errorf("%s: error %v, want one starting \"stream: \"", tc.name, err)
		}
	}
}
