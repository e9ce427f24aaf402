package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/eval"
	"causalfl/internal/repair"
)

// cmdExplain replays a faulty window under candidate interventions and prints
// the ranked minimal fix sets — the counterfactual "what would have fixed
// this" report. With -model the candidate ranking comes from the trained
// localizer's verdict on the simulated production window; without it the
// search falls back to the app's sorted fault targets. Output carries no wall
// clock, so a fixed seed yields byte-identical reports at any -workers value.
func cmdExplain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	fault := fs.String("fault", "", "comma-separated services to break in the replayed window")
	modelPath := fs.String("model", "", "trained model JSON: rank candidates by the localizer's verdict")
	maxSet := fs.Int("max-set", 0, "largest searched intervention set (default 3)")
	top := fs.Int("top", 0, "ranked fix sets retained in the report (default 10)")
	asJSON := fs.Bool("json", false, "emit the versioned JSON envelope instead of text")
	out := fs.String("out", "", "write the report to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fault == "" {
		return fmt.Errorf("explain needs -fault")
	}
	build, err := builderFor(cf.app)
	if err != nil {
		return err
	}

	sc := repair.Scenario{
		App:   cf.app,
		Build: build,
		Seed:  cf.seed,
	}
	for _, target := range strings.Split(*fault, ",") {
		sc.Faults = append(sc.Faults, chaos.TargetFault{
			Target: strings.TrimSpace(target), Fault: chaos.Unavailable(),
		})
	}
	if cf.quick {
		sc.Warmup = repair.QuickWarmup
		sc.Window = repair.QuickWindow
	}

	opts := repair.Options{MaxSetSize: *maxSet, MaxSets: *top, Workers: cf.workers}
	if *modelPath != "" {
		ranked, err := explainRanking(ctx, cf, *modelPath, sc.Faults)
		if err != nil {
			return err
		}
		opts.Ranked = ranked
	}

	report, err := repair.Search(ctx, sc, opts)
	if err != nil {
		return err
	}
	return writeOutput(*out, func(w io.Writer) error {
		if *asJSON {
			return report.WriteJSON(w)
		}
		_, err := io.WriteString(w, report.String())
		return err
	})
}

// explainRanking localizes the faulty production window with a trained model
// and returns the verdict's attribution ranking.
func explainRanking(ctx context.Context, cf commonFlags, modelPath string, faults []chaos.TargetFault) ([]string, error) {
	model, err := readModel(modelPath)
	if err != nil {
		return nil, err
	}
	cfg, err := cf.config()
	if err != nil {
		return nil, err
	}
	targets := make([]string, len(faults))
	for i, tf := range faults {
		targets[i] = tf.Target
	}
	production, err := eval.CollectProductionMulti(ctx, cfg, cf.mult, targets, chaos.Unavailable(), cf.seed+99)
	if err != nil {
		return nil, err
	}
	localizer, err := core.NewLocalizer(core.WithWorkers(cf.workers))
	if err != nil {
		return nil, err
	}
	loc, err := localizer.Localize(ctx, model, production)
	if err != nil {
		return nil, err
	}
	return loc.Ranked(), nil
}
