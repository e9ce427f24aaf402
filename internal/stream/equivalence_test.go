package stream_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/stream"
)

// The batch↔stream equivalence property: at every hop, for every worker
// count and decision mode, the streaming detector's output must be
// byte-identical to core.Detect run on the materialized sliding window, and
// the streaming localizer's vote output must be byte-identical to
// core.Localizer.Localize on the same windows. These tests enforce the
// property exhaustively over a fault-injected synthetic stream.

// detectOpts translates a batch core.DetectConfig into the stream option
// list that reproduces it, so each equivalence case states its semantics
// once in batch terms.
func detectOpts(window int, cfg core.DetectConfig) []stream.Option {
	opts := []stream.Option{stream.WithWindow(window), stream.WithTolerant(cfg.Tolerant)}
	if cfg.Alpha != 0 {
		opts = append(opts, stream.WithAlpha(cfg.Alpha))
	}
	if cfg.FDR != 0 {
		opts = append(opts, stream.WithFDR(cfg.FDR))
	}
	if cfg.MinSamples != 0 {
		opts = append(opts, stream.WithMinSamples(cfg.MinSamples))
	}
	if cfg.Workers != 0 {
		opts = append(opts, stream.WithWorkers(cfg.Workers))
	}
	return opts
}

// noisyDet returns a copy of the workload's hops with deterministic NaN/Inf
// injections (positions pinned by the workload's canonical name order),
// exercising the tolerant path's finite-value filtering and the min-sample
// guard (a freshly poisoned pair can drop below MinSamples).
func noisyDet(w *stream.SynthWorkload) []map[string]map[string]float64 {
	out := make([]map[string]map[string]float64, len(w.Hops))
	for h, hop := range w.Hops {
		oh := make(map[string]map[string]float64, len(hop))
		for mi, m := range w.MetricNames {
			ov := make(map[string]float64, len(hop[m]))
			for si, svc := range w.Services {
				v := hop[m][svc]
				switch (h + 3*mi + 7*si) % 19 {
				case 4:
					v = math.NaN()
				case 9:
					v = math.Inf(1)
				}
				ov[svc] = v
			}
			oh[m] = ov
		}
		out[h] = oh
	}
	return out
}

func TestDetectorMatchesBatchEveryHop(t *testing.T) {
	w, err := stream.NewSynth(stream.SynthConfig{
		Services: 6, Metrics: 3, BaselineLen: 12, Hops: 30,
		Seed: 3, FaultService: 2, FaultAfter: 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		hops   []map[string]map[string]float64
		detect core.DetectConfig
	}{
		{"alpha-tolerant", noisyDet(w), core.DetectConfig{Alpha: 0.05, Tolerant: true}},
		{"fdr-tolerant", noisyDet(w), core.DetectConfig{FDR: 0.10, Tolerant: true}},
		{"alpha-strict", w.Hops, core.DetectConfig{Alpha: 0.05}},
		{"fdr-strict", w.Hops, core.DetectConfig{FDR: 0.05}},
		// Batch strict mode ignores MinSamples: every pair is tested.
		{"minsamples-strict", w.Hops, core.DetectConfig{Alpha: 0.05, MinSamples: 6}},
		{"minsamples-tolerant", noisyDet(w), core.DetectConfig{Alpha: 0.05, Tolerant: true, MinSamples: 6}},
	}

	const window = 8
	ctx := context.Background()
	for _, tc := range cases {
		for workers := 1; workers <= 8; workers++ {
			cfg := tc.detect
			cfg.Workers = workers
			// The worker count sets the flush split: detection output must
			// not depend on it.
			det, err := stream.NewDetector(w.Baseline, detectOpts(window, cfg)...)
			if err != nil {
				t.Fatal(err)
			}
			for h, hop := range tc.hops {
				if err := det.ObserveHop(hop); err != nil {
					t.Fatalf("%s w=%d hop %d: observe: %v", tc.name, workers, h, err)
				}
				mat := det.Materialize()
				for _, m := range w.MetricNames {
					got, err := det.Detect(ctx, m)
					if err != nil {
						t.Fatalf("%s w=%d hop %d %s: stream: %v", tc.name, workers, h, m, err)
					}
					want, err := core.Detect(ctx, cfg, w.Baseline, mat, m)
					if err != nil {
						t.Fatalf("%s w=%d hop %d %s: batch: %v", tc.name, workers, h, m, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s w=%d hop %d %s: stream %+v, batch %+v",
							tc.name, workers, h, m, got, want)
					}
				}
			}
		}
	}
}

func TestLocalizerMatchesBatchEveryHop(t *testing.T) {
	w, err := stream.NewSynth(stream.SynthConfig{
		Services: 5, Metrics: 3, BaselineLen: 10, Hops: 24,
		Seed: 11, FaultService: 3, FaultAfter: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := w.Model()
	hops := noisyDet(w)
	const window = 7

	modes := []struct {
		name  string
		alpha float64
		fdr   float64
	}{
		{"alpha", 0, 0}, // falls back to model.Alpha on both paths
		{"fdr", 0, 0.10},
	}
	ctx := context.Background()
	for _, mode := range modes {
		for workers := 1; workers <= 8; workers++ {
			lopts := []stream.Option{
				stream.WithWindow(window), stream.WithWorkers(workers),
			}
			if mode.alpha != 0 {
				lopts = append(lopts, stream.WithAlpha(mode.alpha))
			}
			if mode.fdr != 0 {
				lopts = append(lopts, stream.WithFDR(mode.fdr))
			}
			sl, err := stream.NewLocalizer(model, lopts...)
			if err != nil {
				t.Fatal(err)
			}
			var opts []core.Option
			opts = append(opts, core.WithWorkers(workers))
			if mode.fdr > 0 {
				opts = append(opts, core.WithFDR(mode.fdr))
			}
			batch, err := core.NewLocalizer(opts...)
			if err != nil {
				t.Fatal(err)
			}
			for h, hop := range hops {
				v, err := sl.Step(ctx, 0, hop)
				if err != nil {
					t.Fatalf("%s w=%d hop %d: step: %v", mode.name, workers, h, err)
				}
				want, err := batch.Localize(ctx, model, sl.Detector().Materialize())
				if err != nil {
					t.Fatalf("%s w=%d hop %d: batch: %v", mode.name, workers, h, err)
				}
				// Aggregate never sees the production snapshot, so the
				// streaming verdict carries no degradation report; strip it
				// before the whole-struct comparison.
				want.Degradation = nil
				if !reflect.DeepEqual(v.Full, want) {
					t.Fatalf("%s w=%d hop %d: stream %+v, batch %+v", mode.name, workers, h, v.Full, want)
				}
				if !reflect.DeepEqual(v.Candidates, want.Candidates) ||
					!reflect.DeepEqual(v.Votes, want.Votes) || v.Abstained != want.Abstained {
					t.Fatalf("%s w=%d hop %d: verdict fields diverge from batch", mode.name, workers, h)
				}
			}
		}
	}
}

// TestDetectorStrictMissingPair checks that strict mode fails on an
// unobserved pair the way batch strict mode fails on a missing snapshot
// entry, and that tolerant mode skips it.
func TestDetectorStrictMissingPair(t *testing.T) {
	base := metrics.NewSnapshot([]string{"m"}, []string{"a", "b"})
	rng := rand.New(rand.NewSource(5))
	for _, svc := range []string{"a", "b"} {
		s := make([]float64, 8)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		base.Data["m"][svc] = s
	}
	ctx := context.Background()

	strict, err := stream.NewDetector(base, stream.WithWindow(4), stream.WithAlpha(0.05))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := strict.Observe("m", "a", rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := strict.Detect(ctx, "m"); err == nil {
		t.Fatal("strict detect accepted a never-observed pair")
	}

	tol, err := stream.NewDetector(base, stream.WithWindow(4), stream.WithAlpha(0.05), stream.WithTolerant(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := tol.Observe("m", "a", rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tol.Detect(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Detect(ctx, core.DetectConfig{Alpha: 0.05, Tolerant: true}, base, tol.Materialize(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tolerant skip diverges: stream %+v, batch %+v", got, want)
	}
	if got.Tested != 1 {
		t.Fatalf("tolerant family size %d, want 1", got.Tested)
	}
}

// TestDetectorStrictErrorContract pins strict mode's error contract pair by
// pair: a never-observed pair, a pair the baseline lacks and an all-NaN
// window each fail the Detect of their own metric with the exact error
// text, completeness errors ahead of test errors; the other metric still
// detects (and matches batch); DetectAll returns the first failing metric's
// error; and refilling the bad pair with finite values clears the error.
func TestDetectorStrictErrorContract(t *testing.T) {
	const window, baseLen = 4, 10
	type pair struct{ m, svc string }
	cases := []struct {
		name     string
		dropBase []pair // absent from the baseline snapshot
		skip     []pair // never observed
		nan      []pair // observed, but only NaN
		errs     map[string]string
		heals    bool
	}{
		{
			name: "never-observed", skip: []pair{{"m2", "b"}},
			errs:  map[string]string{"m2": `stream: no production window for metric "m2" service "b"`},
			heals: true,
		},
		{
			name: "baseline-lacks-service", dropBase: []pair{{"m2", "b"}},
			errs: map[string]string{"m2": `metrics: snapshot metric "m2" has no service "b"`},
		},
		{
			name: "all-nan-window", nan: []pair{{"m2", "b"}},
			errs:  map[string]string{"m2": "stream: anomaly test m2 on b: stats: guarded test needs non-empty samples (|x|=0 |y|=10)"},
			heals: true,
		},
		{
			name: "completeness-before-test", nan: []pair{{"m2", "a"}}, skip: []pair{{"m2", "c"}},
			errs:  map[string]string{"m2": `stream: no production window for metric "m2" service "c"`},
			heals: true,
		},
		{
			name: "first-failing-metric", skip: []pair{{"m1", "c"}}, nan: []pair{{"m2", "b"}},
			errs: map[string]string{
				"m1": `stream: no production window for metric "m1" service "c"`,
				"m2": "stream: anomaly test m2 on b: stats: guarded test needs non-empty samples (|x|=0 |y|=10)",
			},
			heals: true,
		},
	}
	modes := []struct {
		name string
		cfg  core.DetectConfig
	}{
		{"alpha", core.DetectConfig{Alpha: 0.05}},
		{"fdr", core.DetectConfig{FDR: 0.10}},
	}
	ms, svcs := []string{"m1", "m2"}, []string{"a", "b", "c"}
	in := func(ps []pair, m, svc string) bool {
		for _, p := range ps {
			if p.m == m && p.svc == svc {
				return true
			}
		}
		return false
	}
	ctx := context.Background()

	for _, tc := range cases {
		for _, mode := range modes {
			for _, workers := range []int{1, 4} {
				name := tc.name + "/" + mode.name
				rng := rand.New(rand.NewSource(17))
				base := metrics.NewSnapshot(ms, svcs)
				for _, m := range ms {
					for si, svc := range svcs {
						if in(tc.dropBase, m, svc) {
							continue
						}
						s := make([]float64, baseLen)
						for i := range s {
							s[i] = float64(si) + rng.NormFloat64()
						}
						base.Data[m][svc] = s
					}
				}
				cfg := mode.cfg
				cfg.Workers = workers
				det, err := stream.NewDetector(base, detectOpts(window, cfg)...)
				if err != nil {
					t.Fatal(err)
				}
				fill := func(m, svc string, v func() float64) {
					for i := 0; i < window; i++ {
						if err := det.Observe(m, svc, v()); err != nil {
							t.Fatalf("%s: observe %s/%s: %v", name, m, svc, err)
						}
					}
				}
				finite := func() float64 { return 2 + rng.NormFloat64() }
				for _, m := range ms {
					for _, svc := range svcs {
						switch {
						case in(tc.dropBase, m, svc):
							want := `stream: observe: baseline has no usable series for metric "` + m + `" service "` + svc + `"`
							if err := det.Observe(m, svc, 1); err == nil || err.Error() != want {
								t.Fatalf("%s: observe on a pair the baseline lacks: %v, want %q", name, err, want)
							}
						case in(tc.skip, m, svc):
						case in(tc.nan, m, svc):
							fill(m, svc, math.NaN)
						default:
							fill(m, svc, finite)
						}
					}
				}

				// checkOK asserts metric m detects, byte-identical to batch.
				checkOK := func(stage, m string) {
					got, err := det.Detect(ctx, m)
					if err != nil {
						t.Fatalf("%s w=%d %s: Detect(%s): %v", name, workers, stage, m, err)
					}
					want, err := core.Detect(ctx, cfg, base, det.Materialize(), m)
					if err != nil {
						t.Fatalf("%s w=%d %s: batch Detect(%s): %v", name, workers, stage, m, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s w=%d %s: Detect(%s) = %+v, batch %+v", name, workers, stage, m, got, want)
					}
				}
				for _, m := range ms {
					want, bad := tc.errs[m]
					if !bad {
						checkOK("broken", m)
						continue
					}
					if _, err := det.Detect(ctx, m); err == nil || err.Error() != want {
						t.Fatalf("%s w=%d: Detect(%s) error %v, want %q", name, workers, m, err, want)
					}
				}
				firstErr := tc.errs["m1"]
				if firstErr == "" {
					firstErr = tc.errs["m2"]
				}
				if _, err := det.DetectAll(ctx); err == nil || err.Error() != firstErr {
					t.Fatalf("%s w=%d: DetectAll error %v, want %q", name, workers, err, firstErr)
				}
				if _, err := det.Detect(ctx, "zz"); err == nil || err.Error() != `metrics: snapshot has no metric "zz"` {
					t.Fatalf("%s w=%d: unknown metric error %v", name, workers, err)
				}

				if !tc.heals {
					continue
				}
				for _, ps := range [][]pair{tc.skip, tc.nan} {
					for _, p := range ps {
						fill(p.m, p.svc, finite)
					}
				}
				for _, m := range ms {
					checkOK("healed", m)
				}
				all, err := det.DetectAll(ctx)
				if err != nil {
					t.Fatalf("%s w=%d: healed DetectAll: %v", name, workers, err)
				}
				for i, m := range ms {
					got, _ := det.Detect(ctx, m)
					if !reflect.DeepEqual(all[i], got) {
						t.Fatalf("%s w=%d: healed DetectAll[%s] = %+v, Detect %+v", name, workers, m, all[i], got)
					}
				}
			}
		}
	}
}
