// Package report renders the complete evaluation — every table, figure,
// baseline comparison and extension experiment — as a single Markdown
// document. `causalfl report` is the one-command reproduction of
// EXPERIMENTS.md's raw data.
package report

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/arena"
	"causalfl/internal/eval"
	"causalfl/internal/parallel"
)

// Section is one named experiment in the report.
type Section struct {
	// Key selects the section on the command line (`report -section`).
	Key string
	// Title is the Markdown heading.
	Title string
	// Run produces the section body (the experiment's String output).
	Run func(context.Context, eval.Options) (fmt.Stringer, error)
}

// Sections returns the full evaluation in presentation order.
func Sections() []Section {
	return []Section{
		{"table1", "Table I — accuracy and informativeness", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunTableI(ctx, o)
		}},
		{"table2", "Table II — metric sets under load drift", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunTableII(ctx, o)
		}},
		{"fig1", "Fig. 1 — metric-dependent causal worlds", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunFig1(ctx, o)
		}},
		{"fig2", "Fig. 2 — the load confounder", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunFig2(ctx, o)
		}},
		{"causal-sets", "§VI-B — causal sets for an intervention on B", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunCausalSetsExample(ctx, o)
		}},
		{"logging", "§III-B — logging discipline changes the causal world", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunLoggingDiscipline(ctx, o)
		}},
		{"compare-causalbench", "Baseline comparison — CausalBench", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunBaselineComparison(ctx, o, causalbench.Build, causalbench.Name)
		}},
		{"compare-robotshop", "Baseline comparison — Robot-shop", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunBaselineComparison(ctx, o, robotshop.Build, robotshop.Name)
		}},
		{"fault-types", "Extension — fault-type generalization", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunFaultTypeExtension(ctx, o)
		}},
		{"multi-fault", "Extension — concurrent faults", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunMultiFaultExtension(ctx, o)
		}},
		{"tracing", "Extension — tracing comparison", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunTraceComparison(ctx, o)
		}},
		{"nonstationary", "Extension — nonstationary load", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunNonstationaryExtension(ctx, o)
		}},
		{"interference", "Extension — noisy-neighbor interference", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunInterferenceExtension(ctx, o)
		}},
		{"contamination", "Extension — contaminated baseline", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunContaminationExtension(ctx, o)
		}},
		{"budget", "Extension — training budget", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunBudgetExtension(ctx, o)
		}},
		{"scalability", "Extension — scalability", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunScalabilityExtension(ctx, o)
		}},
		{"degraded-causalbench", "Extension — degraded telemetry (CausalBench)", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunDegradationSweep(ctx, o, causalbench.Build, causalbench.Name, nil)
		}},
		{"degraded-robotshop", "Extension — degraded telemetry (Robot-shop)", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunDegradationSweep(ctx, o, robotshop.Build, robotshop.Name, nil)
		}},
		{"repair", "Extension — counterfactual repair", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			return eval.RunRepairExtension(ctx, o)
		}},
		{"arena", "Extension — baseline arena", func(ctx context.Context, o eval.Options) (fmt.Stringer, error) {
			// The arena keeps its virtual per-cell clock (Clock nil) so the
			// section body is byte-stable across regenerations; the section's
			// own wall timing below still reports the host cost.
			return arena.Run(ctx, arena.Options{
				Seed:    o.Seed,
				Quick:   o.Quick,
				Workers: o.Workers,
			})
		}},
	}
}

// Generate runs the sections named by keys (every section when keys is
// empty) and writes the Markdown document: the header, then the sections in
// presentation order. Sections are independent deterministic simulations, so
// they shard across the worker pool (bounded by o.Workers, or GOMAXPROCS
// when zero); the output is byte-identical to a sequential run. Section
// failures abort: a partial evaluation is worse than a loud error.
func Generate(ctx context.Context, o eval.Options, keys []string, w io.Writer) error {
	sections, err := selectSections(keys)
	if err != nil {
		return err
	}
	mode := "paper-length (10-minute collection periods)"
	if o.Quick {
		mode = "abbreviated (2.5-minute collection periods)"
	}
	if _, err := fmt.Fprintf(w, "# causalfl evaluation report\n\nMode: %s. Seed: %d.\n", mode, effectiveSeed(o)); err != nil {
		return fmt.Errorf("report: %w", err)
	}

	type outcome struct {
		result fmt.Stringer
		wall   time.Duration
	}
	clk := o.WallClock()
	// With several sections, each keeps its internal pools serial
	// (Workers: 1): the section fan-out already owns the pool, and nesting
	// would oversubscribe. A single section gets the whole pool.
	inner := o
	if len(sections) > 1 {
		inner.Workers = 1
	}
	outcomes, err := parallel.Map(ctx, o.Workers, len(sections), func(ctx context.Context, idx int) (outcome, error) {
		start := clk.Now()
		result, err := sections[idx].Run(ctx, inner)
		if err != nil {
			return outcome{}, fmt.Errorf("report: %s: %w", sections[idx].Title, err)
		}
		return outcome{result: result, wall: clk.Now().Sub(start).Round(time.Millisecond)}, nil
	})
	if err != nil {
		return err
	}

	for idx, section := range sections {
		oc := outcomes[idx]
		if _, err := fmt.Fprintf(w, "\n## %s\n\n```\n%s```\n\n(_%v_)\n", section.Title, oc.result.String(), oc.wall); err != nil {
			return fmt.Errorf("report: %s: %w", section.Title, err)
		}
	}
	return nil
}

// selectSections returns the sections named by keys in presentation order,
// or every section when keys is empty.
func selectSections(keys []string) ([]Section, error) {
	all := Sections()
	if len(keys) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	var selected []Section
	valid := make([]string, len(all))
	for i, s := range all {
		valid[i] = s.Key
		if want[s.Key] {
			selected = append(selected, s)
			delete(want, s.Key)
		}
	}
	for _, k := range keys {
		if want[k] {
			return nil, fmt.Errorf("report: unknown section %q (want one of %s)", k, strings.Join(valid, ", "))
		}
	}
	return selected, nil
}

// effectiveSeed mirrors Options.Apply's default.
func effectiveSeed(o eval.Options) int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}
