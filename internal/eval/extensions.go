package eval

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"causalfl/internal/apps/causalbench"
	"causalfl/internal/baselines"
	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/load"
	"causalfl/internal/metrics"
	"causalfl/internal/parallel"
)

// This file implements the extension experiments beyond the paper's
// evaluation: fault-type generalization (the paper claims "our methodology
// is not dependent on a specific fault type, just that faults propagate"),
// concurrent-fault ranking (the paper assumes one fault at a time), and
// multi-seed robustness sweeps.

// FaultTypeRow is one fault type's score in the generalization experiment.
type FaultTypeRow struct {
	TrainedOn       string
	Fault           string
	Accuracy        float64
	Informativeness float64
}

// FaultTypeResult reports how a model trained exclusively on
// http-service-unavailable injections localizes *other* fault types at
// detection time.
type FaultTypeResult struct {
	Rows []FaultTypeRow
}

// String renders the result.
func (r *FaultTypeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-type generalization\n")
	fmt.Fprintf(&b, "%-26s %-26s %-9s %s\n", "trained on", "production fault", "accuracy", "informativeness")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %-26s %-9.2f %.2f\n", row.TrainedOn, row.Fault, row.Accuracy, row.Informativeness)
	}
	return b.String()
}

// RunFaultTypeExtension trains on the paper's fault and evaluates against
// error-rate and latency faults on CausalBench. The metric set is extended
// with busy⊘rx (worker-slot occupancy per request): latency faults burn no
// extra CPU and drop no requests, so the paper's metric set alone cannot see
// them, but they hold worker slots longer — upstream callers included,
// because synchronous calls block.
func RunFaultTypeExtension(ctx context.Context, o Options) (*FaultTypeResult, error) {
	cfg := o.Apply(Config{
		Build:   causalbench.Build,
		Metrics: metrics.ExtendedDerived(),
	})
	model, err := Train(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: fault-type extension: %w", err)
	}
	latency := chaos.Fault{Type: chaos.Latency, Delay: 150 * time.Millisecond}
	faults := []chaos.Fault{
		chaos.Unavailable(),
		{Type: chaos.ErrorRate, Rate: 0.5},
		latency,
	}
	result := &FaultTypeResult{}
	for _, fault := range faults {
		c := cfg
		c.Fault = fault
		report, err := Evaluate(ctx, c, model)
		if err != nil {
			return nil, fmt.Errorf("eval: fault-type extension %s: %w", fault.Type, err)
		}
		result.Rows = append(result.Rows, FaultTypeRow{
			TrainedOn:       chaos.ServiceUnavailable.String(),
			Fault:           fault.Type.String(),
			Accuracy:        report.Accuracy,
			Informativeness: report.MeanInformativeness,
		})
	}

	// Matched training: latency faults propagate along a different world
	// (blocking spreads upstream through held worker slots), so a model
	// trained on the *same* fault type recovers what the cross-type model
	// loses — quantifying the paper's §III observation that propagation
	// depends on the fault type.
	matched := cfg
	matched.Fault = latency
	matchedModel, err := Train(ctx, matched)
	if err != nil {
		return nil, fmt.Errorf("eval: fault-type extension matched training: %w", err)
	}
	report, err := Evaluate(ctx, matched, matchedModel)
	if err != nil {
		return nil, fmt.Errorf("eval: fault-type extension matched eval: %w", err)
	}
	result.Rows = append(result.Rows, FaultTypeRow{
		TrainedOn:       latency.Type.String(),
		Fault:           latency.Type.String(),
		Accuracy:        report.Accuracy,
		Informativeness: report.MeanInformativeness,
	})
	return result, nil
}

// MultiFaultResult reports the concurrent-fault extension: with two faults
// active simultaneously, how often do both appear in the localizer's top-2
// ranking?
type MultiFaultResult struct {
	// Pairs is the number of evaluated fault pairs.
	Pairs int
	// BothInTop2 counts pairs fully recovered in the top-2 ranking.
	BothInTop2 int
	// AtLeastOne counts pairs where at least one fault ranked first or
	// second.
	AtLeastOne int
}

// String renders the result.
func (r *MultiFaultResult) String() string {
	return fmt.Sprintf("Concurrent-fault extension (2 simultaneous faults, greedy explain-away)\n"+
		"pairs=%d both-in-top2=%.2f at-least-one=%.2f\n",
		r.Pairs,
		float64(r.BothInTop2)/float64(r.Pairs),
		float64(r.AtLeastOne)/float64(r.Pairs))
}

// RunMultiFaultExtension trains the single-fault model, then injects fault
// pairs and scores the greedy explain-away localizer
// (core.Localizer.LocalizeMulti). Pairs are chosen on independent flows
// where possible (two faults on one path shadow each other).
func RunMultiFaultExtension(ctx context.Context, o Options) (*MultiFaultResult, error) {
	cfg := o.Apply(Config{
		Build:   causalbench.Build,
		Metrics: metrics.DerivedAll(),
	})
	model, err := Train(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: multi-fault extension: %w", err)
	}
	localizer, err := core.NewLocalizer()
	if err != nil {
		return nil, err
	}
	// Pairs on independent flows: each fault's signature stays visible.
	pairs := [][2]string{
		{"B", "I"}, {"C", "H"}, {"E", "I"}, {"G", "C"}, {"D", "B"}, {"H", "E"},
	}
	cfg2, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	result := &MultiFaultResult{}
	for i, pair := range pairs {
		s, err := newSession(cfg2, cfg2.TestMultiplier, cfg2.Seed+5000+int64(i))
		if err != nil {
			return nil, err
		}
		for _, target := range pair {
			if err := s.injector.Inject(target, cfg2.Fault); err != nil {
				return nil, fmt.Errorf("eval: multi-fault inject %s: %w", target, err)
			}
		}
		s.settle()
		production, err := s.collect(cfg2.FaultDuration)
		if err != nil {
			return nil, err
		}
		named, err := localizer.LocalizeMulti(ctx, model, production, 2)
		if err != nil {
			return nil, err
		}
		top2 := make(map[string]bool, 2)
		for _, svc := range named {
			top2[svc] = true
		}
		hits := 0
		for _, target := range pair {
			if top2[target] {
				hits++
			}
		}
		result.Pairs++
		if hits == 2 {
			result.BothInTop2++
		}
		if hits >= 1 {
			result.AtLeastOne++
		}
	}
	return result, nil
}

// NonstationaryRow scores one metric-set / decision-rule combination under
// nonstationary production load.
type NonstationaryRow struct {
	Preset          string
	Test            string
	Accuracy        float64
	Informativeness float64
}

// NonstationaryResult reports the diurnal-load extension: the model is
// trained under steady 1x load, but production traffic oscillates ±60%
// around the same mean. Raw metrics see the oscillation as anomalies
// everywhere; the derived metrics were built to be invariant to exactly
// this (§III-C generalized from a level shift to a drifting level).
type NonstationaryResult struct {
	Amplitude float64
	Rows      []NonstationaryRow
}

// String renders the result.
func (r *NonstationaryResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Nonstationary-load extension (diurnal ±%.0f%% production load, steady training)\n", r.Amplitude*100)
	fmt.Fprintf(&b, "%-13s %-12s %-9s %s\n", "metric set", "test", "accuracy", "informativeness")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-13s %-12s %-9.2f %.2f\n", row.Preset, row.Test, row.Accuracy, row.Informativeness)
	}
	return b.String()
}

// RunNonstationaryExtension trains steadily and tests under diurnal load.
func RunNonstationaryExtension(ctx context.Context, o Options) (*NonstationaryResult, error) {
	const amplitude = 0.6
	union := append(metrics.RawAll(), metrics.DerivedAll()...)
	trainCfg := o.Apply(Config{Build: causalbench.Build, Metrics: union})
	testCfg := trainCfg
	// One full oscillation per collection period; quick runs use a
	// proportionally shorter period.
	period := 5 * time.Minute
	if o.Quick {
		period = 75 * time.Second
	}
	testCfg.Diurnal = &load.DiurnalProfile{Period: period, Amplitude: amplitude}

	// 2x2 design: {raw, derived} metric sets x {guarded, raw} KS tests.
	// Mean-preserving oscillation is absorbed by the effect-size guard
	// even on raw metrics; without the guard only the derived ratios,
	// which are pointwise load-invariant, survive.
	type cell struct {
		preset string
		rawKS  bool
		label  string
	}
	cells := []cell{
		{metrics.SetRawAll, false, "guarded-ks"},
		{metrics.SetRawAll, true, "raw-ks"},
		{metrics.SetDerivedAll, false, "guarded-ks"},
		{metrics.SetDerivedAll, true, "raw-ks"},
	}
	var techniques []baselines.Technique
	for _, c := range cells {
		set, err := metrics.Preset(c.preset)
		if err != nil {
			return nil, err
		}
		techniques = append(techniques, &baselines.Paper{
			MetricNames: metrics.Names(set),
			RawKS:       c.rawKS,
			Label:       c.preset + "/" + c.label,
		})
	}
	scores, err := CompareTechniques(ctx, trainCfg, testCfg, techniques)
	if err != nil {
		return nil, fmt.Errorf("eval: nonstationary extension: %w", err)
	}
	result := &NonstationaryResult{Amplitude: amplitude}
	for i, c := range cells {
		result.Rows = append(result.Rows, NonstationaryRow{
			Preset:          c.preset,
			Test:            c.label,
			Accuracy:        scores[i].Accuracy,
			Informativeness: scores[i].MeanInformativeness,
		})
	}
	return result, nil
}

// ContaminationResult reports the contaminated-baseline robustness probe:
// Algorithm 1 assumes the T_0 period is fault free, but production baselines
// are collected from systems that may already be degraded. This experiment
// deliberately leaves a fault active in one service while D_0 is collected,
// then scores the resulting model normally.
type ContaminationResult struct {
	// Contaminant carried the hidden fault during baseline collection.
	Contaminant string
	// CleanAccuracy / CleanInformativeness come from an uncontaminated
	// control run with the same seeds.
	CleanAccuracy        float64
	CleanInformativeness float64
	// DirtyAccuracy / DirtyInformativeness come from the contaminated run.
	DirtyAccuracy        float64
	DirtyInformativeness float64
}

// String renders the comparison.
func (r *ContaminationResult) String() string {
	return fmt.Sprintf("Contaminated-baseline extension (hidden fault in %s during D_0 collection)\n"+
		"clean baseline: accuracy=%.2f informativeness=%.2f\n"+
		"dirty  baseline: accuracy=%.2f informativeness=%.2f\n",
		r.Contaminant,
		r.CleanAccuracy, r.CleanInformativeness,
		r.DirtyAccuracy, r.DirtyInformativeness)
}

// RunContaminationExtension measures how a hidden fault during baseline
// collection degrades the model.
func RunContaminationExtension(ctx context.Context, o Options) (*ContaminationResult, error) {
	const contaminant = "C"
	cfg := o.Apply(Config{Build: causalbench.Build, Metrics: metrics.DerivedAll()})

	clean, err := Train(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: contamination control: %w", err)
	}
	cleanReport, err := Evaluate(ctx, cfg, clean)
	if err != nil {
		return nil, fmt.Errorf("eval: contamination control eval: %w", err)
	}

	dirty, err := trainWithContaminatedBaseline(ctx, cfg, contaminant)
	if err != nil {
		return nil, err
	}
	dirtyReport, err := Evaluate(ctx, cfg, dirty)
	if err != nil {
		return nil, fmt.Errorf("eval: contamination eval: %w", err)
	}

	return &ContaminationResult{
		Contaminant:          contaminant,
		CleanAccuracy:        cleanReport.Accuracy,
		CleanInformativeness: cleanReport.MeanInformativeness,
		DirtyAccuracy:        dirtyReport.Accuracy,
		DirtyInformativeness: dirtyReport.MeanInformativeness,
	}, nil
}

// trainWithContaminatedBaseline runs the Algorithm 1 campaign with a hidden
// fault active throughout the baseline period only.
func trainWithContaminatedBaseline(ctx context.Context, cfg Config, contaminant string) (*core.Model, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s, err := newSession(cfg, cfg.TrainMultiplier, cfg.Seed)
	if err != nil {
		return nil, err
	}
	baseline, err := s.collectWithFault(contaminant, cfg.BaselineDuration)
	if err != nil {
		return nil, fmt.Errorf("eval: contaminated baseline: %w", err)
	}
	interventions := make(map[string]*metrics.Snapshot, len(s.targets))
	for _, target := range s.targets {
		snap, err := s.collectWithFault(target, cfg.FaultDuration)
		if err != nil {
			return nil, fmt.Errorf("eval: contaminated train fault %s: %w", target, err)
		}
		interventions[target] = snap
	}
	learner, err := core.NewLearner(core.WithAlpha(cfg.Alpha))
	if err != nil {
		return nil, err
	}
	model, err := learner.Learn(ctx, baseline, interventions)
	if err != nil {
		return nil, fmt.Errorf("eval: contaminated learn: %w", err)
	}
	return model, nil
}

// BudgetRow is one training-budget level.
type BudgetRow struct {
	TrainedTargets  int
	Accuracy        float64
	Informativeness float64
}

// BudgetResult reports the intervention-budget curve: Algorithm 1's cost is
// one controlled fault window per service, and the experimental-design
// literature the paper cites ([30]-[32]) is about spending fewer
// interventions. This experiment trains on growing prefixes of CausalBench's
// fault targets and evaluates against faults in *all* services: faults in
// untrained services cannot be named (their worlds were never learned), so
// accuracy tracks the budget roughly linearly — the price of skipping
// injections, made explicit.
type BudgetResult struct {
	TotalTargets int
	Rows         []BudgetRow
}

// String renders the curve.
func (r *BudgetResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Training-budget curve (CausalBench, %d injectable services)\n", r.TotalTargets)
	fmt.Fprintf(&b, "%-16s %-9s %s\n", "trained targets", "accuracy", "informativeness")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16d %-9.2f %.2f\n", row.TrainedTargets, row.Accuracy, row.Informativeness)
	}
	return b.String()
}

// RunBudgetExtension sweeps the training budget.
func RunBudgetExtension(ctx context.Context, o Options) (*BudgetResult, error) {
	allTargets := []string{"A", "B", "C", "D", "E", "G", "H", "I"}
	result := &BudgetResult{TotalTargets: len(allTargets)}
	for _, k := range []int{2, 4, 6, 8} {
		cfg := o.Apply(Config{
			Build:   causalbench.Build,
			Metrics: metrics.DerivedAll(),
			Targets: allTargets[:k],
		})
		model, err := Train(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: budget k=%d train: %w", k, err)
		}
		// Test faults cover every injectable service, trained or not.
		evalCfg := cfg
		evalCfg.Targets = allTargets
		report, err := Evaluate(ctx, evalCfg, model)
		if err != nil {
			return nil, fmt.Errorf("eval: budget k=%d eval: %w", k, err)
		}
		result.Rows = append(result.Rows, BudgetRow{
			TrainedTargets:  k,
			Accuracy:        report.Accuracy,
			Informativeness: report.MeanInformativeness,
		})
	}
	return result, nil
}

// SweepResult aggregates a multi-seed robustness sweep.
type SweepResult struct {
	App             string
	Multiplier      float64
	Seeds           []int64
	Accuracies      []float64
	Informativeness []float64
	MeanAccuracy    float64
	StdAccuracy     float64
	MeanInformative float64
	StdInformative  float64
}

// String renders the sweep summary.
func (r *SweepResult) String() string {
	return fmt.Sprintf("Seed sweep on %s @ %gx (%d seeds)\naccuracy        = %.3f ± %.3f\ninformativeness = %.3f ± %.3f\n",
		r.App, r.Multiplier, len(r.Seeds),
		r.MeanAccuracy, r.StdAccuracy, r.MeanInformative, r.StdInformative)
}

// SweepSeeds runs the full train-and-evaluate campaign once per seed and
// reports mean and standard deviation of both measures — the robustness
// check a single-seed table cannot give. Seeds are independent deterministic
// campaigns: they shard across the campaign worker pool and assemble in seed
// order, so the result is identical to a sequential sweep.
func SweepSeeds(ctx context.Context, cfg Config, seeds []int64) (*SweepResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("eval: sweep needs at least one seed")
	}
	base, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	result := &SweepResult{
		App:        appName(base),
		Multiplier: base.TestMultiplier,
		Seeds:      append([]int64(nil), seeds...),
	}
	type outcome struct {
		accuracy float64
		info     float64
	}
	outcomes, err := parallel.Map(ctx, cfg.Workers, len(seeds), func(ctx context.Context, idx int) (outcome, error) {
		c := cfg
		c.Seed = seeds[idx]
		c.Workers = 1 // each arm stays serial; the seed fan-out owns the pool
		_, report, err := Run(ctx, c)
		if err != nil {
			return outcome{}, fmt.Errorf("eval: sweep seed %d: %w", seeds[idx], err)
		}
		return outcome{accuracy: report.Accuracy, info: report.MeanInformativeness}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, oc := range outcomes {
		result.Accuracies = append(result.Accuracies, oc.accuracy)
		result.Informativeness = append(result.Informativeness, oc.info)
	}
	result.MeanAccuracy, result.StdAccuracy = meanStd(result.Accuracies)
	result.MeanInformative, result.StdInformative = meanStd(result.Informativeness)
	return result, nil
}

// meanStd returns the mean and (population) standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
