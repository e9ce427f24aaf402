// Package arena runs N fault-localization techniques head-to-head on
// identical collected datasets and produces a unified comparison report:
// accuracy (top-1 / top-3 / exact-set / set-containment), informativeness
// (candidate-set size), per-phase wall clock, and sample efficiency
// (accuracy when trained on 1/2, 1/4, 1/8 of the training windows), swept
// over both paper apps × load multipliers × telemetry-degradation
// fractions.
//
// Every technique in a cell sees byte-identical data: the training campaign
// is collected once per cell (always clean — the paper trains on healthy
// deployments) and the production test cases once per cell (degraded when
// the cell's loss fraction is nonzero), then each competitor trains and
// localizes on those shared snapshots. Cells fan out through
// internal/parallel with everything inside a cell serial, so output is
// byte-identical at any worker count. Wall timings come from an injectable
// clock.Clock: by default each cell gets its own clock.Fake (deterministic
// virtual timings, suitable for goldens), and callers opt into clock.Wall
// for real host timings.
package arena

import (
	"context"
	"fmt"
	"slices"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/baselines"
	"causalfl/internal/clock"
	"causalfl/internal/eval"
	"causalfl/internal/metrics"
	"causalfl/internal/parallel"
	"causalfl/internal/sim"
	"causalfl/internal/telemetry"
)

// AppSpec names one application under evaluation.
type AppSpec struct {
	Name  string
	Build apps.Builder
}

// PaperApps returns both applications of the paper's evaluation.
func PaperApps() []AppSpec {
	return []AppSpec{
		{causalbench.Name, causalbench.Build},
		{robotshop.Name, robotshop.Build},
	}
}

// Options configures an arena run. The zero value sweeps both paper apps
// over the default grid at seed 42 with deterministic virtual timings.
type Options struct {
	// Apps are the applications to evaluate (default: both paper apps).
	Apps []AppSpec
	// Multipliers are the production load multipliers (default {1, 4},
	// the paper's Table I settings).
	Multipliers []float64
	// Losses are the telemetry scrape-loss fractions applied to the test
	// campaign only — training stays clean (default {0, 0.2}).
	Losses []float64
	// Fractions are the training-window fractions of the sample-efficiency
	// sweep (default {1/2, 1/4, 1/8}).
	Fractions []float64
	// Seed drives all randomness (zero means 42).
	Seed int64
	// Quick shortens collection windows exactly like eval.Options.Quick.
	Quick bool
	// Workers bounds the cell fan-out (zero means GOMAXPROCS, one forces
	// the serial reference path). Results are identical at every setting.
	Workers int
	// Clock supplies wall timings. Nil means each cell gets a private
	// clock.Fake (deterministic virtual millisecond steps, byte-stable
	// output); inject clock.Wall for real host timings (not byte-stable).
	Clock clock.Clock
}

// withDefaults resolves the option defaults.
func (o Options) withDefaults() Options {
	if len(o.Apps) == 0 {
		o.Apps = PaperApps()
	}
	if len(o.Multipliers) == 0 {
		o.Multipliers = []float64{1, 4}
	}
	if len(o.Losses) == 0 {
		o.Losses = []float64{0, 0.2}
	}
	if len(o.Fractions) == 0 {
		o.Fractions = []float64{0.5, 0.25, 0.125}
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// clockMode names the timing source recorded in the report.
func (o Options) clockMode() string {
	if o.Clock == nil {
		return ClockVirtual
	}
	return ClockWall
}

// minTrainWindows is the floor the sample-efficiency truncation never cuts
// below: a two-sample test needs a handful of windows to say anything.
const minTrainWindows = 3

// roster builds one fresh instance of every competitor. Instances are never
// shared between cells or sample-efficiency retrains, so no state leaks
// across measurements. The order is the report's row order: the paper's
// method first, then the §VI-B ablation family, then the graph-based
// competitors, with the random floor last.
func roster(seed int64, edges []apps.Edge) []baselines.Technique {
	return []baselines.Technique{
		&baselines.Paper{MetricNames: metrics.Names(metrics.DerivedAll())},
		baselines.ErrLogOnly(),
		&baselines.SingleWorld{},
		&baselines.Observational{},
		&baselines.TopologyRCA{Edges: edges},
		&baselines.CausalRCA{},
		&baselines.PCGraph{},
		&baselines.RandomWalk{Edges: edges},
		&baselines.RandomGuess{Seed: seed},
	}
}

// RosterNames lists the competitor names in report row order.
func RosterNames() []string {
	techs := roster(0, []apps.Edge{{From: "a", To: "b"}})
	names := make([]string, len(techs))
	for i, t := range techs {
		names[i] = t.Name()
	}
	return names
}

// Run executes the full arena sweep.
func Run(ctx context.Context, o Options) (*Report, error) {
	o = o.withDefaults()
	for _, f := range o.Losses {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("arena: loss fraction %v outside [0,1]", f)
		}
	}
	for _, f := range o.Fractions {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("arena: training fraction %v outside (0,1]", f)
		}
	}
	for _, m := range o.Multipliers {
		if m <= 0 {
			return nil, fmt.Errorf("arena: load multiplier %v not positive", m)
		}
	}

	report := &Report{
		Seed:      o.Seed,
		Quick:     o.Quick,
		ClockMode: o.clockMode(),
	}

	// One grid cell per (app, multiplier, loss); flatten for the pool.
	type cellSpec struct {
		app  int
		mult float64
		loss float64
	}
	var specs []cellSpec
	for a := range o.Apps {
		for _, m := range o.Multipliers {
			for _, l := range o.Losses {
				specs = append(specs, cellSpec{a, m, l})
			}
		}
	}

	cells, err := parallel.Map(ctx, o.Workers, len(specs), func(ctx context.Context, i int) (Cell, error) {
		s := specs[i]
		return runCell(ctx, o, o.Apps[s.app], s.mult, s.loss)
	})
	if err != nil {
		return nil, err
	}

	for a, app := range o.Apps {
		ar := AppReport{App: app.Name}
		for i, s := range specs {
			if s.app != a {
				continue
			}
			ar.Services = cells[i].services
			ar.Cells = append(ar.Cells, cells[i])
		}
		report.Apps = append(report.Apps, ar)
	}
	return report, nil
}

// cellConfig builds the campaign config for one cell: union metric set (so
// every competitor can project what it needs), production load at the
// cell's multiplier.
func cellConfig(o Options, app AppSpec, mult float64) eval.Config {
	union := append(metrics.RawAll(), metrics.DerivedAll()...)
	union = append(union, metrics.ErrLogRate)
	eo := eval.Options{Seed: o.Seed, Quick: o.Quick, Workers: 1}
	return eo.Apply(eval.Config{Build: app.Build, Metrics: union, TestMultiplier: mult})
}

// runCell collects one cell's shared datasets and measures every competitor
// on them. Everything here is serial: the pool parallelism lives at the
// cell level, and a serial cell with a private clock is what makes the
// timings deterministic.
func runCell(ctx context.Context, o Options, app AppSpec, mult, loss float64) (Cell, error) {
	clk := o.Clock
	if clk == nil {
		clk = &clock.Fake{Current: time.Unix(0, 0).UTC(), Step: time.Millisecond}
	}

	cfg := cellConfig(o, app, mult)
	data, err := eval.CollectTraining(ctx, cfg)
	if err != nil {
		return Cell{}, fmt.Errorf("arena: %s x%g: train collection: %w", app.Name, mult, err)
	}
	testCfg := cfg
	if loss > 0 {
		testCfg.Degraded = &eval.DegradedTelemetry{
			ScrapeLoss: loss,
			Retry:      telemetry.DefaultRetryPolicy(),
		}
	}
	cases, err := eval.CollectTests(ctx, testCfg)
	if err != nil {
		return Cell{}, fmt.Errorf("arena: %s x%g loss %g: test collection: %w", app.Name, mult, loss, err)
	}

	// The topology-driven competitors receive the static call graph, as a
	// service mesh would report it.
	built, err := app.Build(sim.NewEngine(0))
	if err != nil {
		return Cell{}, fmt.Errorf("arena: %s: build: %w", app.Name, err)
	}

	cell := Cell{
		Multiplier: mult,
		Loss:       loss,
		Cases:      len(cases),
		services:   len(data.Baseline.Services),
	}
	nServices := len(data.Baseline.Services)

	for _, tech := range roster(cfg.Seed, built.Edges) {
		row, err := measure(ctx, clk, tech, data, cases, nServices)
		if err != nil {
			return Cell{}, fmt.Errorf("arena: %s x%g loss %g: %s: %w", app.Name, mult, loss, tech.Name(), err)
		}
		// Sample efficiency: retrain a fresh instance per fraction on
		// truncated training windows and re-grade containment accuracy.
		// Untimed — the phase timings above always describe full training.
		for _, frac := range o.Fractions {
			fresh := roster(cfg.Seed, built.Edges)[rowIndex(tech.Name())]
			truncated := truncateTraining(data, frac)
			if err := fresh.Train(ctx, truncated.Baseline, truncated.Interventions); err != nil {
				return Cell{}, fmt.Errorf("arena: %s @%g: retrain %s: %w", app.Name, frac, tech.Name(), err)
			}
			g, err := eval.Grade(ctx, fresh, cases, nServices)
			if err != nil {
				return Cell{}, fmt.Errorf("arena: %s @%g: %w", app.Name, frac, err)
			}
			row.Sample = append(row.Sample, SamplePoint{Fraction: frac, Accuracy: g.Accuracy})
		}
		cell.Rows = append(cell.Rows, row)
	}
	return cell, nil
}

// rowIndex maps a technique name back to its roster slot (for building a
// fresh same-configured instance).
func rowIndex(name string) int {
	for i, n := range RosterNames() {
		if n == name {
			return i
		}
	}
	return -1
}

// measure trains one technique, grades its answers with eval.Grade and
// ranks them for top-1/top-3, timing the two phases with the cell clock.
func measure(ctx context.Context, clk clock.Clock, tech baselines.Technique, data *eval.TrainingData, cases []eval.TestCase, nServices int) (Row, error) {
	_, ranked := tech.(baselines.RankedTechnique)
	row := Row{Technique: tech.Name(), Ranked: ranked}

	start := clk.Now()
	if err := tech.Train(ctx, data.Baseline, data.Interventions); err != nil {
		return Row{}, fmt.Errorf("train: %w", err)
	}
	row.TrainWall = clk.Now().Sub(start)

	start = clk.Now()
	g, err := eval.Grade(ctx, tech, cases, nServices)
	if err != nil {
		return Row{}, err
	}
	var top1, top3, exact int
	for i, o := range g.Outcomes {
		order, err := baselines.RankedOrSets(ctx, tech, cases[i].Production, o.Candidates)
		if err != nil {
			return Row{}, fmt.Errorf("rank %s: %w", o.Target, err)
		}
		verdict := Verdict{Target: o.Target, Candidates: o.Candidates, Correct: o.Correct}
		for _, s := range order[:min(len(order), 3)] {
			verdict.Top = append(verdict.Top, s.Service)
		}
		if len(order) > 0 && order[0].Service == o.Target {
			top1++
		}
		if slices.Contains(verdict.Top, o.Target) {
			top3++
		}
		if len(o.Candidates) == 1 && o.Candidates[0] == o.Target {
			exact++
		}
		row.Verdicts = append(row.Verdicts, verdict)
	}
	row.LocalizeWall = clk.Now().Sub(start)

	row.Contain, row.MeanCandidates, row.MeanInformativeness = g.Accuracy, g.MeanCandidates, g.MeanInformativeness
	if n := float64(len(cases)); n > 0 {
		row.Top1 = float64(top1) / n
		row.Top3 = float64(top3) / n
		row.Exact = float64(exact) / n
	}
	return row, nil
}

// truncateTraining clips every training series (baseline and each
// interventional dataset) to the leading fraction of its windows,
// simulating a campaign that stopped collecting early.
func truncateTraining(data *eval.TrainingData, frac float64) *eval.TrainingData {
	out := &eval.TrainingData{
		Baseline:      truncateSnapshot(data.Baseline, frac),
		Interventions: make(map[string]*metrics.Snapshot, len(data.Interventions)),
	}
	for target, snap := range data.Interventions {
		out.Interventions[target] = truncateSnapshot(snap, frac)
	}
	return out
}

// truncateSnapshot clips each series to max(minTrainWindows, frac·len)
// leading samples.
func truncateSnapshot(snap *metrics.Snapshot, frac float64) *metrics.Snapshot {
	out := snap.Clone()
	for _, byService := range out.Data {
		for svc, series := range byService {
			n := int(frac*float64(len(series)) + 0.5)
			if n < minTrainWindows {
				n = minTrainWindows
			}
			if n < len(series) {
				byService[svc] = series[:n]
			}
		}
	}
	return out
}
