package core

import (
	"context"
	"fmt"

	"causalfl/internal/metrics"
	"causalfl/internal/parallel"
	"causalfl/internal/stats"
)

// DefaultAlpha is the significance level for the two-sample tests. It
// aliases the project-wide constant so the statistical configuration lives
// in internal/stats.
const DefaultAlpha = stats.DefaultAlpha

// DefaultMinSamples is the smallest series length a KS comparison is run on.
// Below four points per side the KS statistic's resolution is so coarse that
// rejection is effectively arbitrary; degraded pairs shorter than this are
// skipped rather than tested.
const DefaultMinSamples = 4

// Learner implements Algorithm 1: fault-injection-driven causal learning.
type Learner struct {
	settings
}

// NewLearner constructs a learner with the paper's defaults: the KS test at
// alpha = 0.05, wrapped in a practical-equivalence guard so that
// operationally meaningless micro-shifts on near-deterministic metrics do
// not pollute the causal sets.
func NewLearner(opts ...Option) (*Learner, error) {
	s, err := applyOptions(settings{
		alpha:      DefaultAlpha,
		minSamples: DefaultMinSamples,
	}, opts)
	if err != nil {
		return nil, err
	}
	return &Learner{settings: s}, nil
}

// Learn runs Algorithm 1 over collected datasets: baseline is D_0 (fault
// free) and interventions maps each injected service s to its dataset D_s.
// Both are declared over the same metric and service universe, but may be
// incomplete: (metric, service) pairs that are missing, or too short to test
// on either side, are skipped rather than failing the whole campaign. On a
// complete clean grid the result is identical to strict learning.
//
// For every metric M and injected service s it computes
//
//	C(s, M) = {s} ∪ { s' : KS(D_s(M, s'), D_0(M, s')) rejects at alpha }
//
// and returns the per-metric causal worlds as a Model. The model's baseline
// is a private copy of baseline with every series sorted (see Model); the
// caller's snapshot is left as it was.
//
// The (target × metric) cells are independent p-value families, so they fan
// out across the learner's worker pool; each family's rejection decision is
// made once inside its cell, and the causal sets are assembled in
// deterministic target-major order. The output is byte-identical at every
// worker count. Cancelling ctx stops the fan-out and returns the context
// error.
func (l *Learner) Learn(ctx context.Context, baseline *metrics.Snapshot, interventions map[string]*metrics.Snapshot) (*Model, error) {
	if baseline == nil {
		return nil, fmt.Errorf("core: learn: nil baseline")
	}
	if err := baseline.ValidateTolerant(); err != nil {
		return nil, fmt.Errorf("core: learn: baseline: %w", err)
	}
	if len(interventions) == 0 {
		return nil, fmt.Errorf("core: learn: no intervention datasets")
	}
	// The learned model takes the baseline's names, and Model.Validate
	// refuses one declared twice, so refuse it here, in the same words.
	known, err := nameSet("model", "service", baseline.Services)
	if err != nil {
		return nil, err
	}
	if _, err := nameSet("model", "metric", baseline.Metrics); err != nil {
		return nil, err
	}

	model := &Model{
		Services:   append([]string(nil), baseline.Services...),
		Metrics:    append([]string(nil), baseline.Metrics...),
		CausalSets: make(map[string]map[string][]string, len(baseline.Metrics)),
		Baseline:   baseline.Clone(),
		Alpha:      l.alpha,
	}
	SortBaseline(model.Baseline)
	for _, m := range model.Metrics {
		model.CausalSets[m] = make(map[string][]string, len(interventions))
	}

	// Deterministic target order: follow the service universe, then any
	// extra map keys (rejected below). Snapshot validation stays serial so
	// skip and error decisions never depend on scheduling.
	for target := range interventions {
		if !known[target] {
			return nil, fmt.Errorf("core: learn: intervention target %q is not in the service universe", target)
		}
	}
	var targets []string
	for _, target := range model.Services {
		snap, ok := interventions[target]
		if !ok {
			continue
		}
		if err := snap.ValidateTolerant(); err != nil {
			return nil, fmt.Errorf("core: learn: intervention %q: %w", target, err)
		}
		targets = append(targets, target)
	}
	if len(targets) != len(interventions) {
		return nil, fmt.Errorf("core: learn: %d interventions but %d matched the universe", len(interventions), len(targets))
	}

	// One job per (target, metric) cell, indexed target-major so the
	// lowest-index error is the one a sequential loop would hit first.
	nm := len(model.Metrics)
	sets, err := parallel.Map(ctx, l.workers, len(targets)*nm, func(_ context.Context, idx int) ([]string, error) {
		return l.learnCell(model, targets[idx/nm], interventions[targets[idx/nm]], model.Metrics[idx%nm])
	})
	if err != nil {
		return nil, err
	}
	for idx, set := range sets {
		model.CausalSets[model.Metrics[idx%nm]][targets[idx/nm]] = set
	}
	model.Targets = targets
	return model, nil
}

// learnCell fills C(target, metric) from one intervention dataset: one
// complete p-value family, tested and decided inside a single worker. Pairs
// missing from either side, or with fewer than minSamples points, are
// skipped: under degraded telemetry an untestable pair simply contributes no
// edge, it does not abort learning.
func (l *Learner) learnCell(model *Model, target string, snap *metrics.Snapshot, m string) ([]string, error) {
	minSamples := l.minSamples
	if minSamples < 1 {
		minSamples = DefaultMinSamples
	}
	set := map[string]bool{target: true} // Algorithm 1 line 9
	var family []string
	var pvals []float64
	for _, svc := range model.Services {
		if svc == target {
			continue
		}
		faulted, okF := snap.SeriesOK(m, svc)
		base, okB := model.Baseline.SeriesOK(m, svc)
		if !okF || !okB || len(faulted) < minSamples || len(base) < minSamples {
			continue
		}
		p, err := pValue(l.rawKS, faulted, base)
		if err != nil {
			return nil, fmt.Errorf("core: learn: test %s on %s under fault in %s: %w", m, svc, target, err)
		}
		family = append(family, svc)
		pvals = append(pvals, p)
	}
	shifted, err := DecideFamily(pvals, l.alpha, l.fdrQ)
	if err != nil {
		return nil, fmt.Errorf("core: learn: %w", err)
	}
	for i, svc := range family {
		if shifted[i] {
			set[svc] = true
		}
	}
	return sortedSet(set), nil
}
