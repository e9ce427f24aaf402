package main

import (
	"context"
	"fmt"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/eval"
	"causalfl/internal/parallel"
	"causalfl/internal/repair"
)

// offlineApp is one paper application of the offline campaign and the
// single-fault scenario its repair search runs on. The targets are
// faults whose window violates the SLO, so a fix set must exist.
type offlineApp struct {
	name   string
	build  apps.Builder
	target string
}

var offlineApps = []offlineApp{
	{causalbench.Name, causalbench.Build, "B"},
	{robotshop.Name, robotshop.Build, "payment"},
}

// offline is the offline campaign the traced run measures: per app,
// Algorithm 1's training campaign and learning, the production-side
// evaluation, then the counterfactual repair search. It runs at the quick
// length of eval.Options.Quick: a paper-length campaign takes about 20 s,
// and a traced run makes three (untraced, traced and the eval.Run
// reference), which would take it past its time limit on a slow machine.
type offline struct {
	seed int64

	// The untraced campaign's stage times, both apps summed, in seconds.
	train, evaluate, explain float64
	// Per app: the evaluation and repair reports.
	reports []*eval.Report
	repairs []*repair.Report

	tally
}

func (o *offline) config(a offlineApp) eval.Config {
	return eval.Options{Seed: o.seed, Quick: true}.Apply(eval.Config{Build: a.build})
}

// scenario is the repair scenario for a: the app under its campaign seed
// with the paper's fault on the target.
func (o *offline) scenario(a offlineApp) repair.Scenario {
	return repair.Scenario{
		App:    a.name,
		Build:  a.build,
		Seed:   o.config(a).Seed + 7300,
		Faults: []chaos.TargetFault{{Target: a.target, Fault: chaos.Unavailable()}},
		Warmup: repair.QuickWarmup,
		Window: repair.QuickWindow,
	}
}

// ranked orders the services by the vote mass the evaluation gave them in
// the case where target carried the fault: the verdict the search is
// ranked by.
func ranked(rep *eval.Report, target string) []string {
	for _, o := range rep.Outcomes {
		if o.Target == target {
			return (&core.Localization{Votes: o.Votes}).Ranked()
		}
	}
	return nil
}

func newLearner() (*core.Learner, error) {
	return core.NewLearner(core.WithAlpha(core.DefaultAlpha), core.WithWorkers(parallel.Workers(0)))
}

// campaign runs the untraced campaign over both apps and records its
// stage times.
func (o *offline) campaign(ctx context.Context) error {
	var train, evaluate, explain time.Duration
	for _, a := range offlineApps {
		cfg := o.config(a)
		o.attempted += 3
		t0 := time.Now()
		data, err := eval.CollectTraining(ctx, cfg)
		if err != nil {
			o.failed++
			return fmt.Errorf("offline %s: collect training: %w", a.name, err)
		}
		learner, err := newLearner()
		if err != nil {
			return err
		}
		model, err := learner.Learn(ctx, data.Baseline, data.Interventions)
		if err != nil {
			o.failed++
			return fmt.Errorf("offline %s: learn: %w", a.name, err)
		}
		t1 := time.Now()
		rep, err := eval.Evaluate(ctx, cfg, model)
		if err != nil {
			o.failed++
			return fmt.Errorf("offline %s: evaluate: %w", a.name, err)
		}
		t2 := time.Now()
		rr, err := repair.Search(ctx, o.scenario(a), repair.Options{Ranked: ranked(rep, a.target)})
		if err != nil {
			o.failed++
			return fmt.Errorf("offline %s: repair: %w", a.name, err)
		}
		t3 := time.Now()
		train += t1.Sub(t0)
		evaluate += t2.Sub(t1)
		explain += t3.Sub(t2)
		o.reports = append(o.reports, rep)
		o.repairs = append(o.repairs, rr)
	}
	o.train, o.evaluate, o.explain = train.Seconds(), evaluate.Seconds(), explain.Seconds()
	return nil
}

// check compares the untraced campaign with eval.Run at the same seed, and
// requires each chosen fix set to restore the injected fault and meet the
// SLO.
func (o *offline) check(ctx context.Context) error {
	for i, a := range offlineApps {
		o.attempted += 2
		_, want, err := eval.Run(ctx, o.config(a))
		if err != nil {
			o.failed++
			return fmt.Errorf("offline %s: eval.Run: %w", a.name, err)
		}
		got := o.reports[i]
		// The campaign must reproduce eval.Run bit for bit.
		if got.Accuracy != want.Accuracy || got.MeanInformativeness != want.MeanInformativeness {
			o.failed++
			o.wrong++
			fmt.Printf("offline %s: accuracy %v informativeness %v, eval.Run gives %v %v\n",
				a.name, got.Accuracy, got.MeanInformativeness, want.Accuracy, want.MeanInformativeness)
		}
		if !restores(o.repairs[i], a.target) {
			o.failed++
			o.wrong++
			fmt.Printf("offline %s: chosen fix set does not restore %s: %v\n", a.name, a.target, o.repairs[i].Chosen())
		}
	}
	return nil
}

// restores reports whether the chosen fix set meets the SLO and undoes the
// fault on target.
func restores(rr *repair.Report, target string) bool {
	chosen := rr.Chosen()
	if chosen == nil || !chosen.MeetsSLO {
		return false
	}
	for _, iv := range chosen.Interventions {
		if iv.Kind == repair.KindRestore && iv.Target == target {
			return true
		}
	}
	return false
}

// total is the untraced campaign's time in seconds.
func (o *offline) total() float64 { return o.train + o.evaluate + o.explain }

// report writes the untraced campaign's stage times: diagnostics of the
// traced run, since a campaign is too long to repeat in every run.
func (o *offline) report(m metricSet) {
	m.put("train_s", o.train, "s")
	m.put("evaluate_s", o.evaluate, "s")
	m.put("explain_s", o.explain, "s")
	fmt.Printf("offline-campaign: %.3f s", o.total())
	for _, r := range o.reports {
		fmt.Printf("; %s accuracy %.2f informativeness %.3f", r.App, r.Accuracy, r.MeanInformativeness)
	}
	fmt.Println()
}

// trace replays one campaign and times the calls into each layer:
// collection of the training and test data (the simulator), learning, each
// case's localization, and the repair replay of the unrepaired control.
func (o *offline) trace(ctx context.Context, m metricSet) error {
	var collectTrain, learn, collectTests, localize, replay layer
	var ksTests, replays int
	var layersOp float64
	t0 := time.Now()
	for _, a := range offlineApps {
		cfg := o.config(a)
		var data *eval.TrainingData
		collectTrain.call(func() (err error) { data, err = eval.CollectTraining(ctx, cfg); return })
		if data == nil {
			return fmt.Errorf("offline %s: traced collect training failed", a.name)
		}
		learner, err := newLearner()
		if err != nil {
			return err
		}
		var model *core.Model
		learn.call(func() (err error) { model, err = learner.Learn(ctx, data.Baseline, data.Interventions); return })
		if model == nil {
			return fmt.Errorf("offline %s: traced learn failed", a.name)
		}
		ksTests += len(model.Targets) * len(model.Metrics) * (len(model.Services) - 1)
		var cases []eval.TestCase
		collectTests.call(func() (err error) { cases, err = eval.CollectTests(ctx, cfg); return })
		localizer, err := core.NewLocalizer(core.WithWorkers(1))
		if err != nil {
			return err
		}
		rep := &eval.Report{}
		for _, tc := range cases {
			localize.call(func() error {
				loc, err := localizer.Localize(ctx, model, tc.Production)
				if err == nil {
					rep.Outcomes = append(rep.Outcomes, eval.Outcome{Target: tc.Target, Votes: loc.Votes})
				}
				return err
			})
		}
		sc := o.scenario(a)
		d := replay.call(func() error { _, err := repair.Replay(sc, nil); return err })
		rr, err := repair.Search(ctx, sc, repair.Options{Ranked: ranked(rep, a.target)})
		if err != nil {
			return fmt.Errorf("offline %s: traced repair: %w", a.name, err)
		}
		replays += rr.Replays
		layersOp += d.Seconds() * float64(rr.Replays)
	}
	traced := time.Since(t0).Seconds() - replay.busy() // the control replay is Search's own, timed twice
	layersOp += collectTrain.busy() + learn.busy() + collectTests.busy() + localize.busy()

	collectTrain.report(m, "sim.collect_training_s", "s", false, false)
	collectTests.report(m, "sim.collect_tests_s", "s", false, false)
	learn.report(m, "core.learn_ms", "ms", false, false)
	m.put("core.learn.ks_tests", float64(ksTests), "count")
	localize.report(m, "core.localize_us", "us", true, false)
	replay.report(m, "repair.replay_ms", "ms", false, false)
	m.put("repair.replays", float64(replays), "count")
	o.attempted += len(collectTrain.durs) + len(learn.durs) + len(collectTests.durs) + len(localize.durs) + len(replay.durs)
	o.failed += collectTrain.failed + learn.failed + collectTests.failed + localize.failed + replay.failed

	coverage(m, "offline", o.total(), traced, layersOp)
	printCoverage("offline-campaign", "campaign", o.total(), traced, layersOp)
	return nil
}
