// Command causalfl is the front door to the fault-localization pipeline: it
// trains interventional causal models on the benchmark applications,
// localizes injected faults, evaluates campaigns, and regenerates the
// paper's tables and figures.
//
// Usage:
//
//	causalfl report   [-section key,...] [-out report.md] [-quick] [-seed N] [-workers N]
//	causalfl train    -app causalbench|robotshop [-metrics preset] [-out model.json] [-quick]
//	causalfl localize -app causalbench|robotshop -model model.json -fault SVC [-mult M]
//	causalfl evaluate -app causalbench|robotshop [-metrics preset] [-mult M] [-quick]
//	causalfl arena    [-app causalbench|robotshop|both] [-quick] [-json] [-out report.txt]
//	causalfl topology -app causalbench|robotshop
//	causalfl sweep    -app causalbench|robotshop [-seeds N] [-mult M] [-quick]
//	causalfl collect  -app causalbench|robotshop -out data.json [-quick]
//	causalfl learn    -data data.json [-out model.json] [-alpha 0.05]
//	causalfl worlds   -model model.json
//	causalfl explain  -app causalbench|robotshop -fault SVC[,SVC...] [-model model.json] [-quick] [-json] [-out report.json]
//	causalfl watch    -app causalbench|robotshop [-model model.json] [-fault SVC] [-inject-at 3m] [-duration 10m] [-out verdicts.json]
//	causalfl serve    [-addr :8080] [-snapshot-dir DIR] [-metrics preset] [-queue N] [-snapshot-every N]
//	causalfl diff     -old old.json -new new.json
//
// Every table, figure and extension experiment of the evaluation is a
// section of `causalfl report`; -section picks some of them by key.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/eval"
	"causalfl/internal/metrics"
	"causalfl/internal/report"
	"causalfl/internal/sim"
)

func main() {
	// The root context dies on Ctrl-C / SIGTERM, which drains the worker
	// pools and aborts campaigns cleanly instead of mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		stop()
		fmt.Fprintln(os.Stderr, "causalfl:", err)
		os.Exit(1)
	}
}

// commands maps each subcommand to its entry point. run dispatches from it
// and its errors list its names, so the two cannot drift apart.
var commands = map[string]func(context.Context, []string) error{
	"train":    cmdTrain,
	"localize": cmdLocalize,
	"explain":  cmdExplain,
	"evaluate": cmdEvaluate,
	"arena":    cmdArena,
	"topology": cmdTopology,
	"sweep":    cmdSweep,
	"collect":  cmdCollect,
	"learn":    cmdLearn,
	"worlds":   cmdWorlds,
	"report":   cmdReport,
	"watch":    cmdWatch,
	"serve":    cmdServe,
	"diff":     cmdDiff,
}

// commandNames returns the subcommand names, sorted.
func commandNames() []string {
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (%s)", strings.Join(commandNames(), ", "))
	}
	cmd, ok := commands[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q (want one of %s)", args[0], strings.Join(commandNames(), ", "))
	}
	return cmd(ctx, args[1:])
}

// builderFor resolves an application name.
func builderFor(name string) (apps.Builder, error) {
	switch name {
	case causalbench.Name:
		return causalbench.Build, nil
	case robotshop.Name:
		return robotshop.Build, nil
	default:
		return nil, fmt.Errorf("unknown app %q (want %s or %s)", name, causalbench.Name, robotshop.Name)
	}
}

// commonFlags registers the flags shared by campaign subcommands.
type commonFlags struct {
	app     string
	metrics string
	quick   bool
	seed    int64
	mult    float64
	workers int
}

func (c *commonFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.app, "app", causalbench.Name, "application under test")
	fs.StringVar(&c.metrics, "metrics", metrics.SetDerivedAll, "metric set preset: "+strings.Join(metrics.PresetNames(), ", "))
	fs.BoolVar(&c.quick, "quick", false, "shortened collection windows (2.5min instead of 10min)")
	fs.Int64Var(&c.seed, "seed", 42, "random seed")
	fs.Float64Var(&c.mult, "mult", 1, "test load multiplier")
	fs.IntVar(&c.workers, "workers", 0, "worker pool size for parallel stages (0 = GOMAXPROCS, 1 = serial); results are identical at every setting")
}

func (c *commonFlags) config() (eval.Config, error) {
	build, err := builderFor(c.app)
	if err != nil {
		return eval.Config{}, err
	}
	set, err := metrics.Preset(c.metrics)
	if err != nil {
		return eval.Config{}, err
	}
	cfg := eval.Options{Seed: c.seed, Quick: c.quick, Workers: c.workers}.Apply(eval.Config{
		Build:          build,
		Metrics:        set,
		TestMultiplier: c.mult,
	})
	return cfg, nil
}

// writeOutput runs write against a freshly created file at path, or stdout
// when path is empty. The file is closed explicitly and the close error
// returned — for buffered file writes, the close error is the write error.
func writeOutput(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	out := fs.String("out", "", "write the trained model JSON to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	model, err := eval.Train(ctx, cfg)
	if err != nil {
		return err
	}
	if err := writeOutput(*out, model.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trained %d causal worlds over %d targets (alpha=%.2f)\n",
		len(model.Metrics), len(model.Targets), model.Alpha)
	return nil
}

func cmdLocalize(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("localize", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	modelPath := fs.String("model", "", "trained model JSON (from causalfl train)")
	fault := fs.String("fault", "", "comma-separated services to break in the production session")
	productionPath := fs.String("production", "", "localize a production snapshot JSON file instead of simulating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("localize needs -model")
	}
	if *fault == "" && *productionPath == "" {
		return fmt.Errorf("localize needs -fault (simulate) or -production (snapshot file)")
	}
	model, err := readModel(*modelPath)
	if err != nil {
		return err
	}

	var production *metrics.Snapshot
	var faults []string
	if *productionPath != "" {
		blob, err := os.ReadFile(*productionPath)
		if err != nil {
			return fmt.Errorf("open production snapshot: %w", err)
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			return fmt.Errorf("decode production snapshot: %w", err)
		}
		if err := snap.Validate(); err != nil {
			return fmt.Errorf("production snapshot: %w", err)
		}
		production = &snap
		fmt.Printf("production data: %s\n", *productionPath)
	} else {
		cfg, err := cf.config()
		if err != nil {
			return err
		}
		faults = strings.Split(*fault, ",")
		production, err = eval.CollectProductionMulti(ctx, cfg, cf.mult, faults, chaos.Unavailable(), cf.seed+99)
		if err != nil {
			return err
		}
		fmt.Printf("injected fault(s): %s (load %gx)\n", *fault, cf.mult)
	}

	localizer, err := core.NewLocalizer(core.WithWorkers(cf.workers))
	if err != nil {
		return err
	}
	if len(faults) > 1 {
		named, err := localizer.LocalizeMulti(ctx, model, production, len(faults))
		if err != nil {
			return err
		}
		fmt.Printf("localized to:      %s (greedy explain-away, k=%d)\n", strings.Join(named, ", "), len(faults))
		return nil
	}
	loc, err := localizer.Localize(ctx, model, production)
	if err != nil {
		return err
	}
	fmt.Printf("localized to:      %s\n", strings.Join(loc.Candidates, ", "))
	for _, m := range model.Metrics {
		fmt.Printf("  A(%s) = {%s}\n", m, strings.Join(loc.Anomalies[m], ", "))
	}
	return nil
}

func cmdEvaluate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	model, report, err := eval.Run(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Print(report)
	fmt.Printf("(model: %d metrics, %d targets, alpha=%.2f)\n",
		len(model.Metrics), len(model.Targets), model.Alpha)
	return nil
}

func cmdTopology(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("topology", flag.ContinueOnError)
	app := fs.String("app", causalbench.Name, "application")
	if err := fs.Parse(args); err != nil {
		return err
	}
	build, err := builderFor(*app)
	if err != nil {
		return err
	}
	a, err := build(sim.NewEngine(0))
	if err != nil {
		return err
	}
	fmt.Printf("app: %s\nservices: %s\n", a.Name, strings.Join(a.Services(), ", "))
	fmt.Println("edges:")
	for _, e := range a.Edges {
		fmt.Printf("  %s -> %s\n", e.From, e.To)
	}
	fmt.Println("user flows:")
	for _, f := range a.Flows {
		fmt.Printf("  %-10s %s/%s (weight %g)\n", f.Name, f.Entry, f.Endpoint, f.Weight)
	}
	fmt.Printf("fault targets: %s\n", strings.Join(a.FaultTargets, ", "))
	return nil
}

func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	count := fs.Int("seeds", 5, "number of seeds to sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count < 1 {
		return fmt.Errorf("sweep needs at least one seed")
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	seeds := make([]int64, *count)
	for i := range seeds {
		seeds[i] = cf.seed + int64(i)*101
	}
	result, err := eval.SweepSeeds(ctx, cfg, seeds)
	if err != nil {
		return err
	}
	fmt.Print(result)
	return nil
}

func cmdCollect(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	out := fs.String("out", "", "write the collected dataset JSON to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	data, err := eval.CollectTraining(ctx, cfg)
	if err != nil {
		return err
	}
	if err := writeOutput(*out, func(w io.Writer) error { return data.WriteJSON(w, cf.app) }); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "collected baseline + %d intervention datasets from %s\n",
		len(data.Interventions), cf.app)
	return nil
}

func cmdLearn(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("learn", flag.ContinueOnError)
	dataPath := fs.String("data", "", "dataset JSON from `causalfl collect`")
	out := fs.String("out", "", "write the trained model JSON to this file (default stdout)")
	alpha := fs.Float64("alpha", 0, "KS significance level (default 0.05)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		return fmt.Errorf("learn needs -data")
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		return fmt.Errorf("open dataset: %w", err)
	}
	defer f.Close()
	data, app, err := eval.ReadTrainingData(f)
	if err != nil {
		return err
	}
	opts := []core.Option{core.WithWorkers(*workers)}
	if *alpha != 0 {
		opts = append(opts, core.WithAlpha(*alpha))
	}
	learner, err := core.NewLearner(opts...)
	if err != nil {
		return err
	}
	model, err := learner.Learn(ctx, data.Baseline, data.Interventions)
	if err != nil {
		return err
	}
	if err := writeOutput(*out, model.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "learned %d causal worlds over %d targets from %s data\n",
		len(model.Metrics), len(model.Targets), app)
	return nil
}

func cmdWorlds(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("worlds", flag.ContinueOnError)
	modelPath := fs.String("model", "", "trained model JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("worlds needs -model")
	}
	model, err := readModel(*modelPath)
	if err != nil {
		return err
	}
	fmt.Print(model.Describe())
	return nil
}

func cmdReport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shortened collection windows")
	seed := fs.Int64("seed", 42, "random seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	out := fs.String("out", "", "write the Markdown report to this file (default stdout)")
	section := fs.String("section", "", "comma-separated section keys to run (default every section)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var keys []string
	if *section != "" {
		keys = strings.Split(*section, ",")
	}
	return writeOutput(*out, func(w io.Writer) error {
		return report.Generate(ctx, eval.Options{Seed: *seed, Quick: *quick, Workers: *workers}, keys, w)
	})
}

func cmdDiff(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	oldPath := fs.String("old", "", "previous model JSON")
	newPath := fs.String("new", "", "current model JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldPath == "" || *newPath == "" {
		return fmt.Errorf("diff needs -old and -new")
	}
	oldModel, err := readModel(*oldPath)
	if err != nil {
		return err
	}
	newModel, err := readModel(*newPath)
	if err != nil {
		return err
	}
	d, err := core.DiffModels(oldModel, newModel)
	if err != nil {
		return err
	}
	fmt.Print(d)
	return nil
}

// readModel reads and validates a trained model file.
func readModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open model: %w", err)
	}
	defer f.Close()
	return core.ReadModel(f)
}
