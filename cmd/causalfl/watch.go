package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/eval"
	"causalfl/internal/serve"
	"causalfl/internal/sim"
	"causalfl/internal/stream"
)

// watchReport is the JSON artifact of one watch run: the run parameters and
// the full verdict timeline.
type watchReport struct {
	App      string            `json:"app"`
	Faults   []string          `json:"faults,omitempty"`
	InjectAt sim.Time          `json:"inject_at,omitempty"`
	Duration sim.Time          `json:"duration"`
	Window   int               `json:"window"`
	HystK    int               `json:"hyst_k"`
	HystN    int               `json:"hyst_n"`
	Verdicts []*stream.Verdict `json:"verdicts"`
}

// cmdWatch runs the streaming localization engine against a live simulated
// deployment: train (or load) a model, start the application under load,
// then advance virtual time one sampling tick at a time, feeding drained
// telemetry through the incremental pipeline and emitting a verdict per
// completed hop. A fault is optionally injected mid-run so the timeline
// shows the detect-and-confirm transition.
func cmdWatch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	modelPath := fs.String("model", "", "trained model JSON (from causalfl train); trains in-session when empty")
	fault := fs.String("fault", "", "comma-separated services to break mid-run (empty: healthy run)")
	injectAt := fs.Duration("inject-at", 3*time.Minute, "virtual time into the run at which the fault is injected")
	duration := fs.Duration("duration", 10*time.Minute, "virtual duration of the watched production period")
	window := fs.Int("window", 8, "sliding-window length in window-values per (metric, service) series")
	hystK := fs.Int("hyst-k", stream.DefaultHystK, "hops that must agree for confirmation (K of N)")
	hystN := fs.Int("hyst-n", stream.DefaultHystN, "hysteresis horizon in hops (K of N)")
	alpha := fs.Float64("alpha", 0, "per-test significance threshold (0: the model's training alpha)")
	fdr := fs.Float64("fdr", 0, "Benjamini-Hochberg FDR level; overrides -alpha when > 0")
	out := fs.String("out", "", "write the verdict timeline JSON to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}

	var model *core.Model
	if *modelPath != "" {
		if model, err = readModel(*modelPath); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(os.Stderr, "no -model given; training in-session...")
		if model, err = eval.Train(ctx, cfg); err != nil {
			return err
		}
	}

	ls, err := eval.NewLiveSession(cfg, cf.mult, cf.seed+99)
	if err != nil {
		return err
	}
	live := ls.Config()
	opts := []stream.Option{
		stream.WithMetricSet(live.Metrics),
		stream.WithGeometry(live.WindowLength, live.WindowHop),
		stream.WithWindow(*window),
		stream.WithHysteresis(*hystK, *hystN),
		stream.WithWorkers(cf.workers),
	}
	if *alpha != 0 {
		opts = append(opts, stream.WithAlpha(*alpha))
	}
	if *fdr != 0 {
		opts = append(opts, stream.WithFDR(*fdr))
	}
	pipe, err := stream.NewPipeline(model, opts...)
	if err != nil {
		return err
	}

	var faults []string
	if *fault != "" {
		faults = strings.Split(*fault, ",")
	}
	rep := &watchReport{
		App: cf.app, Faults: faults, Duration: sim.Time(*duration),
		Window: *window, HystK: *hystK, HystN: *hystN,
	}
	if len(faults) > 0 {
		rep.InjectAt = sim.Time(*injectAt)
	}

	start := ls.Now()
	injected := false
	var lastConfirmed string
	// processTick advances one sampling interval and feeds the pipeline.
	// It takes its own context so the drain path can finish the in-flight
	// window after the command context is already cancelled.
	processTick := func(ctx context.Context) error {
		samples := ls.Advance(live.SampleInterval)
		verdicts, err := pipe.Tick(ctx, samples)
		if err != nil {
			return err
		}
		for _, v := range verdicts {
			rep.Verdicts = append(rep.Verdicts, v)
			if c := strings.Join(v.Confirmed, ","); c != lastConfirmed {
				fmt.Fprintf(os.Stderr, "t=%v confirmed=[%s] candidates=%v\n",
					time.Duration(v.At-start), c, v.Candidates)
				lastConfirmed = c
			}
		}
		return nil
	}

	step := func() (bool, error) {
		if ls.Now()-start >= sim.Time(*duration) {
			return true, nil
		}
		if len(faults) > 0 && !injected && ls.Now()-start >= sim.Time(*injectAt) {
			for _, target := range faults {
				if err := ls.Inject(target, chaos.Unavailable()); err != nil {
					return false, err
				}
			}
			injected = true
			fmt.Fprintf(os.Stderr, "t=%v injected %s\n", time.Duration(ls.Now()-start), *fault)
		}
		return false, processTick(ctx)
	}

	drain := func() error {
		if ctx.Err() != nil {
			// Interrupted mid-hop (SIGINT): finish the current window so the
			// report ends on a verdict instead of a dangling partial hop —
			// at most one hop's worth of extra ticks.
			fmt.Fprintf(os.Stderr, "t=%v interrupted; draining current window\n",
				time.Duration(ls.Now()-start))
			before := len(rep.Verdicts)
			for i := 0; i < int(live.WindowHop/live.SampleInterval) && len(rep.Verdicts) == before; i++ {
				if err := processTick(context.Background()); err != nil {
					return err
				}
			}
		}
		if err := writeOutput(*out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}); err != nil {
			return err
		}
		st := pipe.Stats()
		fmt.Fprintf(os.Stderr, "watched %v: %d verdicts, final confirmed=[%s] (%d samples accepted, %d out-of-order, %d dead, %d windows)\n",
			time.Duration(ls.Now()-start), len(rep.Verdicts), lastConfirmed,
			st.Aggregator.Accepted, st.Aggregator.OutOfOrder, st.Aggregator.Dead, st.Aggregator.Windows)
		return nil
	}

	return serve.RunDrained(ctx, step, drain)
}
