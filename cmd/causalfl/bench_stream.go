package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"causalfl/internal/clock"
	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/parallel"
	"causalfl/internal/stream"
)

// streamBenchEntry is one timed engine run over a scale point's hop sequence.
type streamBenchEntry struct {
	Engine      string  `json:"engine"` // "stream" or "batch-per-tick"
	Workers     int     `json:"workers"`
	Services    int     `json:"services"`
	Metrics     int     `json:"metrics"`
	Window      int     `json:"window"`
	BaselineLen int     `json:"baseline_len"`
	Hops        int     `json:"hops"` // timed hops (warmup excluded)
	WallMS      float64 `json:"wall_ms"`
	PerHopMS    float64 `json:"per_hop_ms"`
}

// streamBenchReport is the BENCH_stream.json artifact.
type streamBenchReport struct {
	Seed    int64              `json:"seed"`
	Entries []streamBenchEntry `json:"entries"`
}

// streamBenchFlags are the bench flags that only apply with -stream.
type streamBenchFlags struct {
	services string
	baseline int
}

const (
	streamBenchWindow = 8
	streamBenchWarmup = 8  // untimed full-density hops that fill the windows
	streamBenchTimed  = 60 // timed hops in the sparse steady state
	streamBenchActive = 64 // services reporting per steady-state hop
	streamBenchMaxCmp = 512
)

// streamMetricCount reinterprets the shared -metrics flag as a metric count:
// `bench -stream` sizes a synthetic grid, so a preset name is meaningless
// here. The registered default preset means "unset" and falls back to 8.
func streamMetricCount(preset string) (int, error) {
	if preset == metrics.SetDerivedAll {
		return 8, nil
	}
	n, err := strconv.Atoi(preset)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bench -stream wants a positive -metrics count, got %q", preset)
	}
	return n, nil
}

// benchStream times the incremental streaming engine across a sweep of fleet
// sizes. Every scale point runs the same shape of workload: a dense warmup
// fills the sliding windows (untimed), then streamBenchTimed hops arrive in
// the sparse steady state a large fleet produces — per hop, only
// streamBenchActive services report (plus the faulty one). The incremental
// detector's per-hop cost tracks the number of *reporting* services, so the
// per-hop latency should stay flat as the fleet grows; that flatness is the
// number this benchmark exists to record.
//
// Engines per scale point:
//
//   - "stream": the incremental engine, baselines read in place.
//   - "batch-per-tick" (fleets up to streamBenchMaxCmp services): rebuild the
//     sliding-window snapshot and rerun the batch localizer from scratch each
//     hop. Its candidates must match the stream engine bit for bit.
func benchStream(ctx context.Context, cf commonFlags, sf streamBenchFlags, outPath string) error {
	nMetrics, err := streamMetricCount(cf.metrics)
	if err != nil {
		return err
	}
	if sf.baseline < 1 {
		return fmt.Errorf("bench -stream wants a positive -baseline length, got %d", sf.baseline)
	}
	var scales []int
	for _, f := range strings.Split(sf.services, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			return fmt.Errorf("bench -stream wants -services as a comma list of fleet sizes >= 2, got %q", sf.services)
		}
		scales = append(scales, n)
	}

	pool := parallel.Workers(cf.workers)
	counts := []int{1}
	if pool > 1 {
		counts = append(counts, pool)
	}
	rep := &streamBenchReport{Seed: cf.seed}

	for _, services := range scales {
		// The synthetic fault shifts a series by +5 on a mean of
		// 10+3m+0.5(s%64): only services with s%64 == 0 shift by more than
		// the guarded KS test's 20% practical-equivalence tolerance on some
		// metric. Any other service is never detected, and a hop where no
		// metric votes names every service a candidate.
		faultIdx := (services / 2) &^ 63
		w, err := stream.NewSynth(stream.SynthConfig{
			Services: services, Metrics: nMetrics,
			BaselineLen:    sf.baseline,
			Hops:           streamBenchWarmup + streamBenchTimed,
			Seed:           cf.seed,
			FaultService:   faultIdx,
			FaultAfter:     streamBenchWarmup + streamBenchTimed/2,
			ActiveServices: streamBenchActive,
			Warmup:         streamBenchWarmup,
		})
		if err != nil {
			return err
		}
		model := w.Model()
		faulty := w.Services[faultIdx]

		for _, workers := range counts {
			entry := func(engine string, wallMS float64) streamBenchEntry {
				return streamBenchEntry{
					Engine: engine, Workers: workers,
					Services: services, Metrics: nMetrics,
					Window: streamBenchWindow, BaselineLen: sf.baseline,
					Hops:   streamBenchTimed,
					WallMS: wallMS, PerHopMS: wallMS / streamBenchTimed,
				}
			}

			streamV, streamMS, err := benchStreamEngine(ctx, w, model, workers)
			if err != nil {
				return err
			}
			if !detected(streamV, faulty) {
				return fmt.Errorf("bench: stream engine missed the fault at %d services: candidates %v, votes %v", services, streamV.Candidates, streamV.Votes)
			}
			streamCand := streamV.Candidates
			rep.Entries = append(rep.Entries, entry("stream", streamMS))

			var batchMS float64
			if services <= streamBenchMaxCmp {
				batchCand, ms, err := benchBatchPerTick(ctx, w, model, workers)
				if err != nil {
					return err
				}
				batchMS = ms
				if !reflect.DeepEqual(streamCand, batchCand) {
					return fmt.Errorf("bench: engines diverged at %d services: stream %v, batch %v", services, streamCand, batchCand)
				}
				rep.Entries = append(rep.Entries, entry("batch-per-tick", ms))
			}

			line := fmt.Sprintf("services=%-5d workers=%d  stream %7.2fms (%.3fms/hop)",
				services, workers, streamMS, streamMS/streamBenchTimed)
			if services <= streamBenchMaxCmp {
				line += fmt.Sprintf("  batch-per-tick %8.2fms (%.1fx)", batchMS, batchMS/streamMS)
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}

	return writeOutput(outPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
}

// benchStreamEngine feeds the warmup to a fresh streaming localizer untimed,
// then times the steady state. It returns the last hop's verdict.
func benchStreamEngine(ctx context.Context, w *stream.SynthWorkload, model *core.Model, workers int) (*stream.Verdict, float64, error) {
	sl, err := stream.NewLocalizer(model, stream.WithWindow(streamBenchWindow), stream.WithWorkers(workers))
	if err != nil {
		return nil, 0, err
	}
	var last *stream.Verdict
	var start time.Time
	for h, hop := range w.Hops {
		if h == streamBenchWarmup {
			// Collect the warmup's (and prior scale points') garbage outside
			// the timed region, so steady-state hops are not charged for
			// someone else's allocations.
			runtime.GC()
			start = clock.Wall.Now()
		}
		if last, err = sl.Step(ctx, 0, hop); err != nil {
			return nil, 0, err
		}
	}
	return last, float64(clock.Wall.Now().Sub(start).Microseconds()) / 1e3, nil
}

// benchBatchPerTick maintains the same sliding windows as the stream engine
// but rebuilds a snapshot and runs the full batch localizer from scratch each
// hop — the naive baseline the incremental engine replaces.
func benchBatchPerTick(ctx context.Context, w *stream.SynthWorkload, model *core.Model, workers int) ([]string, float64, error) {
	batch, err := core.NewLocalizer(core.WithWorkers(workers))
	if err != nil {
		return nil, 0, err
	}
	shadow := make(map[string]map[string][]float64, len(w.MetricNames))
	for _, m := range w.MetricNames {
		shadow[m] = make(map[string][]float64, len(w.Services))
	}
	var cand []string
	var start time.Time
	for h, hop := range w.Hops {
		if h == streamBenchWarmup {
			runtime.GC()
			start = clock.Wall.Now()
		}
		snap := metrics.NewSnapshot(w.MetricNames, w.Services)
		for _, m := range w.MetricNames {
			for _, svc := range w.Services {
				s := shadow[m][svc]
				if v, ok := hop[m][svc]; ok {
					s = append(s, v)
					if len(s) > streamBenchWindow {
						s = s[len(s)-streamBenchWindow:]
					}
					shadow[m][svc] = s
				}
				snap.Data[m][svc] = s
			}
		}
		loc, err := batch.Localize(ctx, model, snap)
		if err != nil {
			return nil, 0, err
		}
		cand = loc.Candidates
	}
	return cand, float64(clock.Wall.Now().Sub(start).Microseconds()) / 1e3, nil
}

// detected reports whether a verdict localized the fault: some metric voted,
// and the faulty service is among the candidates. A hop where no metric
// votes names every service a candidate, so the vote check is what makes the
// candidate check mean anything.
func detected(v *stream.Verdict, faulty string) bool {
	return v != nil && len(v.Votes) > 0 && slices.Contains(v.Candidates, faulty)
}
