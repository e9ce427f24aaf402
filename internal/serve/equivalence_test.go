package serve

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"causalfl/internal/metrics"
	"causalfl/internal/sim"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// randomTicks draws a seeded stream over services: most ticks carry one
// sample per service, and the rest mix in absent services (their sample
// comes a tick late), empty sample lists, missing samples with a recovery
// span, replayed stamps the aggregator rejects as out of order, and a fault
// on one service halfway. The first three ticks are complete, so every
// service learns the same window grid.
func randomTicks(rng *rand.Rand, services []string, n int) []map[string][]telemetry.Sample {
	faulty := rng.Intn(len(services))
	late := make(map[string][]telemetry.Sample)
	var ticks []map[string][]telemetry.Sample
	for k := 1; k <= n; k++ {
		at := sim.Time(40+k) * sim.Time(fixInterval)
		tick := make(map[string][]telemetry.Sample)
		for si, svc := range services {
			smp := telemetry.Sample{At: at, Deltas: fixtureCPU(si, 40+k, si == faulty && k > n/2), Span: 1}
			r := rng.Intn(20)
			switch {
			case k <= 3:
			case r == 0:
				late[svc] = append(late[svc], smp) // absent now, delivered next tick
				continue
			case r == 1:
				tick[svc] = []telemetry.Sample{} // present with no samples
				late[svc] = append(late[svc], smp)
				continue
			case r == 2:
				smp = telemetry.Sample{At: at, Missing: true}
			case r == 3:
				smp.Span = 2
			case r == 4:
				late[svc] = append(late[svc], telemetry.Sample{At: at - sim.Time(fixInterval)}) // a replay
			}
			tick[svc] = append(append(tick[svc], late[svc]...), smp)
			delete(late, svc)
		}
		ticks = append(ticks, tick)
	}
	return ticks
}

// TestIndexedTickMatchesMapTick: the tenant's indexed path (scanner,
// validation, Pipeline.TickIndexed) and the map-keyed Pipeline.Tick give the
// same verdicts, Stats and exported state bytes, tick by tick, on seeded
// random streams. The map path also carries a service the model lacks,
// which it ignores. The model lists its services out of name order, so the
// tenant's sorted cursor and the pipeline's indices differ.
func TestIndexedTickMatchesMapTick(t *testing.T) {
	services := []string{"svc-d", "svc-a", "svc-c", "svc-b"}
	model := fixtureModel(t, services)
	cfg := tenantCfg(1, 0)
	cfg.SnapshotEvery = -1
	set, err := metrics.Preset(cfg.Preset)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ticks := randomTicks(rng, services, 60)

		ref, err := stream.NewPipeline(model, cfg.streamOptions(set)...)
		if err != nil {
			t.Fatal(err)
		}
		tn, err := newTenant("t", cfg, model, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var hops int
		for k, tick := range ticks {
			withStranger := make(map[string][]telemetry.Sample, len(tick)+1)
			for svc, ss := range tick {
				withStranger[svc] = ss
			}
			if rng.Intn(4) == 0 {
				withStranger["svc-zz"] = []telemetry.Sample{{At: sim.Time(k)}}
			}
			want, wantErr := ref.Tick(ctx, withStranger)

			b, err := decodeIngest(mustJSON(t, ingestRequest{Ticks: wireTicks(ticks[k : k+1])}), tn.svcs)
			if err != nil {
				t.Fatal(err)
			}
			if err := tn.validateTicks(b); err != nil {
				t.Fatalf("seed %d tick %d: %v", seed, k, err)
			}
			got, gotErr := tn.pipe.TickIndexed(ctx, b.ticks[0])
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("seed %d tick %d: indexed error %v, map error %v", seed, k, gotErr, wantErr)
			}
			if gotErr != nil {
				break
			}
			hops += len(want)
			if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
				t.Fatalf("seed %d tick %d: verdicts\n%s\nmap path\n%s", seed, k, g, w)
			}
			if g, w := tn.pipe.Stats(), ref.Stats(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d tick %d: stats %+v, map path %+v", seed, k, g, w)
			}
			if g, w := mustJSON(t, tn.pipe.ExportState()), mustJSON(t, ref.ExportState()); !bytes.Equal(g, w) {
				t.Fatalf("seed %d tick %d: state\n%s\nmap path\n%s", seed, k, g, w)
			}
		}
		if hops == 0 {
			t.Fatalf("seed %d: no hop completed; the stream never reaches the vote", seed)
		}
	}
}

// BenchmarkTenantBatch times the consumer half of the ingest path: one
// decoded 64-tick robotshop batch through validation and the tenant's
// pipeline to its verdicts. Each run shifts the batch's stamps one batch
// later, so the stream keeps moving forward.
func BenchmarkTenantBatch(b *testing.B) {
	services, body := robotshopBatch(b)
	cfg := tenantCfg(1, 0)
	cfg.SnapshotEvery = -1
	tn, err := newTenant("t", cfg, fixtureModel(b, services), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := decodeIngest(body, tn.svcs)
	if err != nil {
		b.Fatal(err)
	}
	first, last := batch.ticks[0][0].Samples[0].At, batch.ticks[len(batch.ticks)-1][0].Samples[0].At
	lap := last - first + (batch.ticks[1][0].Samples[0].At - first)
	ctx := context.Background()
	run := func() int {
		if err := tn.validateTicks(batch); err != nil {
			b.Fatal(err)
		}
		verdicts := 0
		for _, tick := range batch.ticks {
			vs, err := tn.pipe.TickIndexed(ctx, tick)
			if err != nil {
				b.Fatal(err)
			}
			verdicts += len(vs)
		}
		return verdicts
	}
	shift := func() {
		for _, tick := range batch.ticks {
			for _, e := range tick {
				for i := range e.Samples {
					e.Samples[i].At += lap
				}
			}
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		shift()
		b.StartTimer()
		if run() == 0 {
			b.Fatal("a batch completed no hop")
		}
	}
}
