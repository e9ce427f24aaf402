package eval

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"causalfl/internal/apps/causalbench"
	"causalfl/internal/core"
	"causalfl/internal/load"
	"causalfl/internal/metrics"
	"causalfl/internal/traces"
)

// TraceComparisonRow scores one injected fault under both localizers.
type TraceComparisonRow struct {
	Target          string
	TraceCandidates []string
	TraceCorrect    bool
	OurCandidates   []string
	OurCorrect      bool
}

// TraceComparisonResult pits the trace-based root-cause baseline (deepest
// erroring span of failed user traces) against the interventional causal
// localizer on every CausalBench fault. It operationalizes the paper's
// introductory argument: tracing pinpoints faults on synchronous request
// paths but is blind to omission faults (G dies and no user trace ever
// fails) and degrades when services drop trace context.
type TraceComparisonResult struct {
	Rows          []TraceComparisonRow
	TraceAccuracy float64
	TraceInfo     float64
	OurAccuracy   float64
	OurInfo       float64
}

// String renders the per-fault comparison.
func (r *TraceComparisonResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tracing vs interventional causal learning (CausalBench)\n")
	fmt.Fprintf(&b, "%-8s %-32s %s\n", "fault", "trace RCA", "causalfl")
	mark := func(ok bool) string {
		if ok {
			return "+"
		}
		return "-"
	}
	for _, row := range r.Rows {
		traceCol := fmt.Sprintf("%s {%s}", mark(row.TraceCorrect), strings.Join(row.TraceCandidates, ","))
		fmt.Fprintf(&b, "%-8s %-32s %s {%s}\n",
			row.Target, traceCol, mark(row.OurCorrect), strings.Join(row.OurCandidates, ","))
	}
	fmt.Fprintf(&b, "trace RCA: accuracy=%.2f informativeness=%.2f\n", r.TraceAccuracy, r.TraceInfo)
	fmt.Fprintf(&b, "causalfl : accuracy=%.2f informativeness=%.2f\n", r.OurAccuracy, r.OurInfo)
	return b.String()
}

// RunTraceComparison trains the causal model, then for every fault target
// collects one production session observed simultaneously by the metric
// pipeline and a span collector, and scores both localizers on it.
func RunTraceComparison(ctx context.Context, o Options) (*TraceComparisonResult, error) {
	cfg := o.Apply(Config{
		Build:   causalbench.Build,
		Metrics: metrics.DerivedAll(),
	})
	model, err := Train(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: trace comparison: %w", err)
	}
	localizer, err := core.NewLocalizer()
	if err != nil {
		return nil, err
	}
	cfg, err = cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	result := &TraceComparisonResult{}
	traceLoc := &traces.Localizer{ClientName: load.ClientName}
	n := len(model.Services)
	var traceHits, ourHits int
	var traceInfo, ourInfo float64

	for i, target := range model.Targets {
		s, err := newSession(cfg, cfg.TestMultiplier, cfg.Seed+7000+int64(i))
		if err != nil {
			return nil, err
		}
		collector := traces.NewCollector()
		s.app.Cluster.SetSpanObserver(collector.Observe)

		if err := s.injector.Inject(target, cfg.Fault); err != nil {
			return nil, fmt.Errorf("eval: trace comparison inject %s: %w", target, err)
		}
		s.settle()
		collector.Drain() // discard warmup/settle spans
		production, err := s.collect(cfg.FaultDuration)
		if err != nil {
			return nil, err
		}
		spans := collector.Drain()

		traceCandidates, err := traceLoc.Localize(spans, s.app.Services())
		if err != nil {
			return nil, fmt.Errorf("eval: trace comparison localize %s: %w", target, err)
		}
		loc, err := localizer.Localize(ctx, model, production)
		if err != nil {
			return nil, err
		}

		row := TraceComparisonRow{
			Target:          target,
			TraceCandidates: traceCandidates,
			TraceCorrect:    slices.Contains(traceCandidates, target) && len(traceCandidates) < n,
			OurCandidates:   loc.Candidates,
			OurCorrect:      slices.Contains(loc.Candidates, target),
		}
		result.Rows = append(result.Rows, row)
		if row.TraceCorrect {
			traceHits++
		}
		if row.OurCorrect {
			ourHits++
		}
		traceInfo += Informativeness(n, len(traceCandidates))
		ourInfo += Informativeness(n, len(loc.Candidates))
	}
	total := float64(len(result.Rows))
	result.TraceAccuracy = float64(traceHits) / total
	result.OurAccuracy = float64(ourHits) / total
	result.TraceInfo = traceInfo / total
	result.OurInfo = ourInfo / total
	return result, nil
}
