package stream

import (
	"context"
	"fmt"
	"sort"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/sim"
	"causalfl/internal/telemetry"
)

// Pipeline is the full streaming engine behind `causalfl watch`: drained
// telemetry ticks in, verdicts out. It chains an Aggregator (ticks ->
// completed hopping windows per service), metric extraction (the
// BuildSnapshot recipe, one value per window), and a Localizer (incremental
// detection + vote phase + hysteresis).
//
// A hop fires when every model service has completed the window starting at
// the same instant; with the Sampler's regular cadence that happens once per
// hop interval. A service whose window grid drifts from the others' is a
// misalignment error, not a silent stall.
type Pipeline struct {
	set []metrics.Metric
	agg *Aggregator
	loc *Localizer
	// pending collects completed windows by start time until every service
	// has reported that window.
	pending map[sim.Time]map[string]telemetry.Window
	// hops counts emitted verdicts; lastAt stamps the newest one.
	hops   uint64
	lastAt sim.Time
}

// PipelineStats is a Pipeline's ingest-to-verdict accounting: the
// aggregator's sample accounting plus the verdict counters. `causalfl watch`
// prints it in the final summary and `causalfl serve` exposes it per tenant
// on the stats endpoint.
type PipelineStats struct {
	// Aggregator is the sample-level accounting (accepted, out-of-order
	// rejections, dead-trimmed samples, emitted windows).
	Aggregator AggStats `json:"aggregator"`
	// Hops counts verdicts emitted over the pipeline's lifetime.
	Hops uint64 `json:"hops"`
	// LastVerdictAt is the timestamp of the newest verdict (zero before
	// the first hop completes).
	LastVerdictAt sim.Time `json:"last_verdict_at"`
}

// NewPipeline builds the watch engine for a trained model. WithMetricSet is
// required; WithGeometry sets the telemetry aggregation grid (zero values
// select the paper defaults); the remaining options configure the embedded
// Localizer as NewLocalizer would.
func NewPipeline(model *core.Model, opts ...Option) (*Pipeline, error) {
	s, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if len(s.set) == 0 {
		return nil, fmt.Errorf("stream: empty metric set (a pipeline needs WithMetricSet)")
	}
	// The localizer validates the model, so a malformed one reports that
	// before any mismatch with the metric set.
	loc, err := newLocalizer(model, s)
	if err != nil {
		return nil, err
	}
	names := metrics.Names(s.set)
	if len(names) != len(model.Metrics) {
		return nil, fmt.Errorf("stream: metric set has %d metrics, model has %d", len(names), len(model.Metrics))
	}
	for i, n := range names {
		if n != model.Metrics[i] {
			return nil, fmt.Errorf("stream: metric set[%d] is %q, model expects %q", i, n, model.Metrics[i])
		}
	}
	agg, err := NewAggregator(s.length, s.hop)
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		set:     s.set,
		agg:     agg,
		loc:     loc,
		pending: make(map[sim.Time]map[string]telemetry.Window),
	}, nil
}

// Localizer exposes the verdict engine (read-only between Ticks).
func (p *Pipeline) Localizer() *Localizer { return p.loc }

// Stats returns a copy of the pipeline's accounting.
func (p *Pipeline) Stats() PipelineStats {
	return PipelineStats{Aggregator: p.agg.Stats(), Hops: p.hops, LastVerdictAt: p.lastAt}
}

// Tick feeds one drained batch of samples (service -> samples, e.g. one
// Sampler.Drain) and returns the verdicts for every hop completed by it, in
// timeline order. Most ticks complete zero or one hop.
func (p *Pipeline) Tick(ctx context.Context, samples map[string][]telemetry.Sample) ([]*Verdict, error) {
	completed, err := p.agg.IngestTick(samples)
	if err != nil {
		return nil, err
	}
	services := len(p.loc.idx.Model().Services)
	for svc, ws := range completed {
		for _, w := range ws {
			bySvc := p.pending[w.Start]
			if bySvc == nil {
				bySvc = make(map[string]telemetry.Window, services)
				p.pending[w.Start] = bySvc
			}
			bySvc[svc] = w
		}
	}

	// Collect fully reported window starts in timeline order.
	var ready []sim.Time
	for start, bySvc := range p.pending {
		if len(bySvc) == services {
			ready = append(ready, start)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })

	var out []*Verdict
	for _, start := range ready {
		bySvc := p.pending[start]
		delete(p.pending, start)
		// A pending window older than one we are about to emit means some
		// service's grid drifted: it produced this older window while
		// another never did. Surface that instead of growing the backlog.
		for s := range p.pending {
			if s < start {
				return nil, fmt.Errorf("stream: service windows misaligned: window at %v still incomplete while %v is ready", s, start)
			}
		}
		hop := make(map[string]map[string]float64, len(p.set))
		var at sim.Time
		for _, m := range p.set {
			vals := make(map[string]float64, len(bySvc))
			for svc, w := range bySvc {
				vals[svc] = m.Extract(w.Sum)
				at = w.End
			}
			hop[m.Name] = vals
		}
		v, err := p.loc.Step(ctx, at, hop)
		if err != nil {
			return nil, err
		}
		p.hops++
		p.lastAt = v.At
		out = append(out, v)
	}
	return out, nil
}
