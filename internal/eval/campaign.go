// Package eval orchestrates end-to-end fault-localization campaigns on the
// benchmark applications and scores them with the paper's measures
// (accuracy and informativeness, §VI-A). It also implements the experiment
// harnesses that regenerate every table and figure of the evaluation.
package eval

import (
	"context"
	"fmt"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/load"
	"causalfl/internal/metrics"
	"causalfl/internal/parallel"
	"causalfl/internal/sim"
	"causalfl/internal/telemetry"
)

// Config describes one campaign. Zero fields take the paper's defaults.
type Config struct {
	// Build constructs the application under test.
	Build apps.Builder
	// Metrics is the metric set (default: the derived-all preset used for
	// Table I).
	Metrics []metrics.Metric
	// Alpha is the KS significance level (default core.DefaultAlpha).
	Alpha float64
	// Seed drives all randomness. Train and test sessions derive distinct
	// sub-seeds from it.
	Seed int64
	// LoadMode selects open- or closed-loop load (default open loop).
	LoadMode load.Mode
	// Rate is the open-loop base request rate (default load.DefaultRate).
	Rate float64
	// Users is the closed-loop base user count (default load.DefaultUsers).
	Users int
	// TrainMultiplier scales training load (default 1).
	TrainMultiplier float64
	// TestMultiplier scales production load (default 1; Table I also uses 4).
	TestMultiplier float64
	// Warmup is discarded at session start (default 30s of virtual time).
	Warmup time.Duration
	// BaselineDuration is the fault-free D_0 collection window (default
	// 10min, the paper's setting).
	BaselineDuration time.Duration
	// FaultDuration is the per-fault collection window (default 10min).
	FaultDuration time.Duration
	// Settle is discarded after injecting or clearing a fault (default 15s).
	Settle time.Duration
	// SampleInterval, WindowLength, WindowHop control telemetry (defaults:
	// 5s samples, 60s windows every 30s — the paper's hopping windows).
	SampleInterval time.Duration
	WindowLength   time.Duration
	WindowHop      time.Duration
	// Targets overrides the services to inject (default app.FaultTargets).
	Targets []string
	// Rounds repeats the whole test sweep with fresh seeds (default 1).
	Rounds int
	// Diurnal, when set, modulates the open-loop load of every session
	// this config creates (see load.DiurnalProfile). Used by the
	// nonstationary-load extension experiment.
	Diurnal *load.DiurnalProfile
	// Fault is the injected fault (default the paper's
	// http-service-unavailable).
	Fault chaos.Fault
	// Workers bounds the worker pool that shards campaign rounds and
	// parallelizes per-case localization. Zero selects GOMAXPROCS; one
	// forces the serial reference path. Any value produces identical
	// output — each round derives its own sub-seed, so rounds are
	// order-independent.
	Workers int
	// Degraded, when set, degrades the telemetry plane for the whole
	// campaign and routes collection through the lossy pipeline (retrying
	// sampler, coverage-aware windows, snapshot repair). Nil reproduces
	// the clean pipeline bit for bit.
	Degraded *DegradedTelemetry
}

// DegradedTelemetry configures campaign-wide telemetry degradation: every
// service's scrapes fail with probability ScrapeLoss and are corrupted with
// probability Corruption, independently per tick. Collection then runs the
// full robustness pipeline. With both rates zero the configuration is inert:
// no randomness is drawn and the collected snapshots equal the clean path's.
type DegradedTelemetry struct {
	// ScrapeLoss is the per-tick probability that a scrape returns
	// nothing, in [0,1].
	ScrapeLoss float64
	// Corruption is the per-tick probability that a scrape's reading is
	// mangled (NaN/Inf/spike), in [0,1].
	Corruption float64
	// Retry re-reads failed scrapes before declaring a tick missing.
	// Zero Attempts disables retrying.
	Retry telemetry.RetryPolicy
	// MinWindowCoverage marks windows with less tick coverage than this
	// as missing (NaN). Zero selects the BuildSnapshotDegraded default.
	MinWindowCoverage float64
	// Repair is the snapshot repair policy. The zero value imputes with
	// the default thresholds.
	Repair metrics.RepairPolicy
}

// validate checks the degradation rates.
func (d *DegradedTelemetry) validate() error {
	if d.ScrapeLoss < 0 || d.ScrapeLoss > 1 {
		return fmt.Errorf("eval: scrape-loss fraction %v outside [0,1]", d.ScrapeLoss)
	}
	if d.Corruption < 0 || d.Corruption > 1 {
		return fmt.Errorf("eval: corruption fraction %v outside [0,1]", d.Corruption)
	}
	if d.MinWindowCoverage < 0 || d.MinWindowCoverage > 1 {
		return fmt.Errorf("eval: min window coverage %v outside [0,1]", d.MinWindowCoverage)
	}
	return nil
}

// withDefaults fills zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Build == nil {
		return c, fmt.Errorf("eval: config needs a Build function")
	}
	if c.Metrics == nil {
		c.Metrics = metrics.DerivedAll()
	}
	if c.Alpha == 0 {
		c.Alpha = core.DefaultAlpha
	}
	if c.LoadMode == 0 {
		c.LoadMode = load.OpenLoop
	}
	if c.TrainMultiplier == 0 {
		c.TrainMultiplier = 1
	}
	if c.TestMultiplier == 0 {
		c.TestMultiplier = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 30 * time.Second
	}
	if c.BaselineDuration == 0 {
		c.BaselineDuration = 10 * time.Minute
	}
	if c.FaultDuration == 0 {
		c.FaultDuration = 10 * time.Minute
	}
	if c.Settle == 0 {
		c.Settle = 15 * time.Second
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = telemetry.DefaultSampleInterval
	}
	if c.WindowLength == 0 {
		c.WindowLength = telemetry.DefaultWindowLength
	}
	if c.WindowHop == 0 {
		c.WindowHop = telemetry.DefaultWindowHop
	}
	if c.Rounds == 0 {
		c.Rounds = 1
	}
	if c.Fault.Type == 0 {
		c.Fault = chaos.Unavailable()
	}
	if c.Degraded != nil {
		if err := c.Degraded.validate(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// session is one live application instance with load, telemetry and chaos
// attached.
type session struct {
	cfg      Config
	app      *apps.App
	eng      *sim.Engine
	sampler  *telemetry.Sampler
	injector *chaos.Injector
	gen      *load.Generator
	targets  []string
}

// newSession builds an app, starts load at the given multiplier, warms up,
// and starts telemetry.
func newSession(cfg Config, multiplier float64, seed int64) (*session, error) {
	eng := sim.NewEngine(seed)
	app, err := cfg.Build(eng)
	if err != nil {
		return nil, fmt.Errorf("eval: build app: %w", err)
	}
	gen, err := load.NewGenerator(app, load.Config{
		Mode:          cfg.LoadMode,
		RatePerSecond: cfg.Rate,
		Users:         cfg.Users,
		Multiplier:    multiplier,
		Diurnal:       cfg.Diurnal,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: load generator: %w", err)
	}
	var samplerOpts []telemetry.SamplerOption
	if cfg.Degraded != nil && cfg.Degraded.Retry.Attempts > 0 {
		samplerOpts = append(samplerOpts, telemetry.WithRetry(cfg.Degraded.Retry))
	}
	sampler, err := telemetry.NewSampler(app.Cluster, cfg.SampleInterval, samplerOpts...)
	if err != nil {
		return nil, fmt.Errorf("eval: sampler: %w", err)
	}
	injector, err := chaos.NewInjector(app.Cluster)
	if err != nil {
		return nil, fmt.Errorf("eval: injector: %w", err)
	}
	if cfg.Degraded != nil {
		// Ambient degradation is environment state, not an injected
		// experiment fault: set the rates directly so the injector's
		// telemetry-plane ledger stays free for per-target injections.
		for _, name := range app.Cluster.ServiceNames() {
			svc, ok := app.Cluster.Service(name)
			if !ok {
				continue
			}
			svc.SetScrapeLossRate(cfg.Degraded.ScrapeLoss)
			svc.SetSampleCorruptionRate(cfg.Degraded.Corruption)
		}
	}
	if err := gen.Start(); err != nil {
		return nil, fmt.Errorf("eval: start load: %w", err)
	}
	// Let queues, counters and the background workers reach steady state
	// before measuring.
	eng.Run(eng.Now() + cfg.Warmup)
	if err := sampler.Start(); err != nil {
		return nil, fmt.Errorf("eval: start sampler: %w", err)
	}
	targets := cfg.Targets
	if len(targets) == 0 {
		targets = app.FaultTargets
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("eval: app %s has no fault targets", app.Name)
	}
	return &session{
		cfg:      cfg,
		app:      app,
		eng:      eng,
		sampler:  sampler,
		injector: injector,
		gen:      gen,
		targets:  targets,
	}, nil
}

// collect advances the simulation d of virtual time and returns the metric
// snapshot of that period.
func (s *session) collect(d time.Duration) (*metrics.Snapshot, error) {
	s.sampler.Discard()
	s.eng.Run(s.eng.Now() + d)
	windows, err := telemetry.WindowsByService(s.sampler.Drain(), s.cfg.WindowLength, s.cfg.WindowHop)
	if err != nil {
		return nil, fmt.Errorf("eval: collect: %w", err)
	}
	if d := s.cfg.Degraded; d != nil {
		snap, err := metrics.BuildSnapshotDegraded(windows, s.app.Services(), s.cfg.Metrics, d.MinWindowCoverage)
		if err != nil {
			return nil, fmt.Errorf("eval: collect: %w", err)
		}
		repaired, _ := metrics.Repair(snap, d.Repair)
		return repaired, nil
	}
	snap, err := metrics.BuildSnapshot(windows, s.app.Services(), s.cfg.Metrics)
	if err != nil {
		return nil, fmt.Errorf("eval: collect: %w", err)
	}
	return snap, nil
}

// settle advances past a fault transition, discarding telemetry.
func (s *session) settle() {
	s.eng.Run(s.eng.Now() + s.cfg.Settle)
	s.sampler.Discard()
}

// collectWithFault injects the campaign fault into target, collects for d,
// then clears the fault.
func (s *session) collectWithFault(target string, d time.Duration) (*metrics.Snapshot, error) {
	if err := s.injector.Inject(target, s.cfg.Fault); err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	s.settle()
	snap, err := s.collect(d)
	if clearErr := s.injector.Clear(target); clearErr != nil && err == nil {
		err = fmt.Errorf("eval: %w", clearErr)
	}
	if err != nil {
		return nil, err
	}
	s.settle()
	return snap, nil
}

// TrainingData is the output of one Algorithm 1 data-collection campaign.
type TrainingData struct {
	// Baseline is the fault-free dataset D_0.
	Baseline *metrics.Snapshot
	// Interventions maps each injected service s to its dataset D_s.
	Interventions map[string]*metrics.Snapshot
}

// TestCase is one production dataset with its ground-truth fault location.
type TestCase struct {
	// Target carried the injected fault.
	Target string
	// Production is the dataset D collected while the fault was active.
	Production *metrics.Snapshot
}

// CollectTraining runs the training campaign's data collection: a fault-free
// baseline period followed by one fault injection per target, all in a
// single continuous session at the training load (the paper injects one
// fault at a time into a live deployment, §V-A).
// The session is one continuous virtual-time engine, so collection is
// inherently serial; ctx is checked between faults so a cancelled campaign
// stops at the next fault boundary.
func CollectTraining(ctx context.Context, cfg Config) (*TrainingData, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s, err := newSession(cfg, cfg.TrainMultiplier, cfg.Seed)
	if err != nil {
		return nil, err
	}
	baseline, err := s.collect(cfg.BaselineDuration)
	if err != nil {
		return nil, fmt.Errorf("eval: train baseline: %w", err)
	}
	interventions := make(map[string]*metrics.Snapshot, len(s.targets))
	for _, target := range s.targets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		snap, err := s.collectWithFault(target, cfg.FaultDuration)
		if err != nil {
			return nil, fmt.Errorf("eval: train fault %s: %w", target, err)
		}
		interventions[target] = snap
	}
	return &TrainingData{Baseline: baseline, Interventions: interventions}, nil
}

// CollectTests runs the production-side campaign at the test multiplier and
// returns one labelled test case per target and round. Each round uses a
// fresh session and seed: the paper collects train and test datasets in
// separate experiments.
// Rounds are sharded across the campaign worker pool: each round derives its
// own sub-seed and runs in a private session (engine, load, telemetry), so
// rounds are independent and the assembled case list is identical to the
// serial loop's at any worker count. Within a round the intervention sequence
// stays serial — it is one continuous virtual-time session by design.
func CollectTests(ctx context.Context, cfg Config) ([]TestCase, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rounds, err := parallel.Map(ctx, cfg.Workers, cfg.Rounds, func(ctx context.Context, round int) ([]TestCase, error) {
		s, err := newSession(cfg, cfg.TestMultiplier, cfg.Seed+1009*int64(round+1))
		if err != nil {
			return nil, err
		}
		var cases []TestCase
		for _, target := range s.targets {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			production, err := s.collectWithFault(target, cfg.FaultDuration)
			if err != nil {
				return nil, fmt.Errorf("eval: test fault %s: %w", target, err)
			}
			cases = append(cases, TestCase{Target: target, Production: production})
		}
		return cases, nil
	})
	if err != nil {
		return nil, err
	}
	var cases []TestCase
	for _, r := range rounds {
		cases = append(cases, r...)
	}
	return cases, nil
}

// Train executes the Algorithm 1 campaign: collect D_0, then inject one
// fault at a time into every target and collect D_s, then learn the model.
func Train(ctx context.Context, cfg Config) (*core.Model, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	data, err := CollectTraining(ctx, cfg)
	if err != nil {
		return nil, err
	}
	learner, err := core.NewLearner(core.WithAlpha(cfg.Alpha), core.WithWorkers(parallel.Workers(cfg.Workers)))
	if err != nil {
		return nil, err
	}
	model, err := learner.Learn(ctx, data.Baseline, data.Interventions)
	if err != nil {
		return nil, fmt.Errorf("eval: train: %w", err)
	}
	return model, nil
}

// Evaluate runs the production-side campaign: with the trained model, inject
// each fault at the test multiplier and score the localizer's output.
// Per-case localization fans out across the campaign worker pool; each case
// is localized with a serial localizer (the case fan-out already saturates
// the pool) and the outcomes are assembled in case order.
func Evaluate(ctx context.Context, cfg Config, model *core.Model) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("eval: evaluate: nil model")
	}
	localizer, err := core.NewLocalizer(core.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	report := &Report{
		App:          appName(cfg),
		Multiplier:   cfg.TestMultiplier,
		ServiceCount: len(model.Services),
		MetricNames:  append([]string(nil), model.Metrics...),
	}
	cases, err := CollectTests(ctx, cfg)
	if err != nil {
		return nil, err
	}
	outcomes, err := parallel.Map(ctx, cfg.Workers, len(cases), func(ctx context.Context, i int) (Outcome, error) {
		tc := cases[i]
		loc, err := localizer.Localize(ctx, model, tc.Production)
		if err != nil {
			return Outcome{}, fmt.Errorf("eval: localize fault %s: %w", tc.Target, err)
		}
		return newOutcome(tc.Target, loc, len(model.Services)), nil
	})
	if err != nil {
		return nil, err
	}
	report.Outcomes = outcomes
	report.finalize()
	return report, nil
}

// appName instantiates the builder on a throwaway engine to learn the app's
// name for reporting.
func appName(cfg Config) string {
	app, err := cfg.Build(sim.NewEngine(0))
	if err != nil {
		return "unknown"
	}
	return app.Name
}

// CollectProduction spins up a fresh session at the given load multiplier,
// injects fault into target, and returns the production dataset collected
// over the campaign's fault duration. It is the building block behind
// Evaluate, exposed for diagnostics and the CLI's one-shot localize command.
func CollectProduction(ctx context.Context, cfg Config, multiplier float64, target string, fault chaos.Fault, seed int64) (*metrics.Snapshot, error) {
	return CollectProductionMulti(ctx, cfg, multiplier, []string{target}, fault, seed)
}

// CollectProductionMulti is CollectProduction with several simultaneous
// faults — the data source for the concurrent-fault localizer.
func CollectProductionMulti(ctx context.Context, cfg Config, multiplier float64, targets []string, fault chaos.Fault, seed int64) (*metrics.Snapshot, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("eval: collect production: no fault targets")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg.Fault = fault
	s, err := newSession(cfg, multiplier, seed)
	if err != nil {
		return nil, err
	}
	for _, target := range targets {
		if err := s.injector.Inject(target, cfg.Fault); err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
	}
	s.settle()
	return s.collect(cfg.FaultDuration)
}

// Run is the unified campaign entry point: collect training data, learn the
// model, run the production-side campaign, score it. It is the pipeline
// behind every table experiment and the CLI's train/eval commands.
func Run(ctx context.Context, cfg Config) (*core.Model, *Report, error) {
	model, err := Train(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	report, err := Evaluate(ctx, cfg, model)
	if err != nil {
		return nil, nil, err
	}
	return model, report, nil
}
