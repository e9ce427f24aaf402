package stream

import (
	"fmt"
	"math/rand"
	"sort"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/stats"
)

// SynthConfig sizes a synthetic streaming workload.
type SynthConfig struct {
	// Services and Metrics size the grid; BaselineLen is the baseline
	// series length per pair and Hops the number of production hops.
	Services, Metrics, BaselineLen, Hops int
	// Seed drives the generator; equal configs produce equal workloads.
	Seed int64
	// FaultService, when >= 0, is the index of the service whose
	// distribution shifts by several baseline standard deviations on every
	// metric starting at hop FaultAfter.
	FaultService int
	// FaultAfter is the first faulty hop index.
	FaultAfter int
	// ActiveServices, when positive and below Services, caps how many
	// services report per hop: each hop carries values only for a rotating
	// window of that many services (plus the fault service once faulty), the
	// sparse steady state a large fleet produces. Zero means every service
	// reports every hop.
	ActiveServices int
	// Warmup is the number of leading hops where every service reports
	// regardless of ActiveServices, so sliding windows fill before the
	// sparse steady state begins.
	Warmup int
}

// SynthWorkload is a deterministic synthetic stream: a baseline snapshot and
// a hop sequence over a services × metrics grid, with an optional
// distribution shift injected into one service mid-stream. The benchmarks
// use it as the 64-service × 8-metric reference workload; the conformance
// tests use smaller grids.
type SynthWorkload struct {
	Baseline    *metrics.Snapshot
	MetricNames []string
	Services    []string
	// Hops is the production stream: Hops[i] maps metric -> service ->
	// window value for hop i.
	Hops []map[string]map[string]float64
	cfg  SynthConfig
}

// NewSynth generates a workload. Pair (m, s) draws from a normal
// distribution with a mean that varies across the grid; the faulty service's
// mean shifts by +5 (five baseline standard deviations) from FaultAfter on.
// The baseline series are sorted, as a learned model's are (core.Model), so
// the detectors built on the workload read them in place.
func NewSynth(cfg SynthConfig) (*SynthWorkload, error) {
	if cfg.Services < 1 || cfg.Metrics < 1 || cfg.BaselineLen < 1 || cfg.Hops < 0 {
		return nil, fmt.Errorf("stream: synth wants positive grid sizes, got %+v", cfg)
	}
	if cfg.FaultService >= cfg.Services {
		return nil, fmt.Errorf("stream: synth fault service %d out of range (%d services)", cfg.FaultService, cfg.Services)
	}
	if cfg.ActiveServices < 0 || cfg.Warmup < 0 {
		return nil, fmt.Errorf("stream: synth wants non-negative activity shape, got %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	svcs := make([]string, cfg.Services)
	for i := range svcs {
		svcs[i] = fmt.Sprintf("svc-%02d", i)
	}
	ms := make([]string, cfg.Metrics)
	for i := range ms {
		ms[i] = fmt.Sprintf("metric-%d", i)
	}

	// The per-service mean offset wraps at 64 so the fault's +5 shift stays
	// several guard tolerances above every mean at any grid size (the guard
	// is relative); for grids up to 64 services the wrap is the identity.
	mean := func(mi, si int) float64 { return 10 + 3*float64(mi) + 0.5*float64(si%64) }
	base := metrics.NewSnapshot(ms, svcs)
	for mi, m := range ms {
		for si, svc := range svcs {
			series := make([]float64, cfg.BaselineLen)
			for i := range series {
				series[i] = mean(mi, si) + rng.NormFloat64()
			}
			base.Data[m][svc] = series
		}
	}
	core.SortBaseline(base)

	// active reports whether service si reports on hop h. The RNG draw below
	// always runs for every pair — membership filters the hop map only — so
	// equal seeds produce equal values whatever the activity shape.
	active := func(h, si int) bool {
		a := cfg.ActiveServices
		if a <= 0 || a >= cfg.Services || h < cfg.Warmup {
			return true
		}
		if cfg.FaultService >= 0 && si == cfg.FaultService && h >= cfg.FaultAfter {
			return true
		}
		start := ((h - cfg.Warmup) * a) % cfg.Services
		return (si-start+cfg.Services)%cfg.Services < a
	}
	hops := make([]map[string]map[string]float64, cfg.Hops)
	for h := range hops {
		// Size each metric's map for the services that actually report: map
		// iteration walks capacity, not population, so a map sized for the
		// whole fleet would make every consumer's hop cost O(Services) even
		// in the sparse steady state the workload exists to model.
		hopCap := len(svcs)
		if cfg.ActiveServices > 0 && cfg.ActiveServices < cfg.Services && h >= cfg.Warmup {
			hopCap = cfg.ActiveServices + 1
		}
		hop := make(map[string]map[string]float64, len(ms))
		for mi, m := range ms {
			vals := make(map[string]float64, hopCap)
			for si, svc := range svcs {
				v := mean(mi, si) + rng.NormFloat64()
				if cfg.FaultService >= 0 && si == cfg.FaultService && h >= cfg.FaultAfter {
					v += 5
				}
				if active(h, si) {
					vals[svc] = v
				}
			}
			hop[m] = vals
		}
		hops[h] = hop
	}
	return &SynthWorkload{Baseline: base, MetricNames: ms, Services: svcs, Hops: hops, cfg: cfg}, nil
}

// Model wraps the workload's baseline in a minimal trained model: every
// service is a target and each causal set is the singleton {target} under
// every metric — the exact-attribution model, sufficient for exercising the
// vote phase and hysteresis end to end.
func (w *SynthWorkload) Model() *core.Model {
	sets := make(map[string]map[string][]string, len(w.MetricNames))
	for _, m := range w.MetricNames {
		byTarget := make(map[string][]string, len(w.Services))
		for _, svc := range w.Services {
			byTarget[svc] = []string{svc}
		}
		sets[m] = byTarget
	}
	targets := append([]string(nil), w.Services...)
	sort.Strings(targets)
	return &core.Model{
		Services:   append([]string(nil), w.Services...),
		Metrics:    append([]string(nil), w.MetricNames...),
		Targets:    targets,
		CausalSets: sets,
		Baseline:   w.Baseline,
		Alpha:      stats.DefaultAlpha,
	}
}
