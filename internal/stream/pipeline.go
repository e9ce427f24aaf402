package stream

import (
	"context"
	"fmt"
	"slices"

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
	// layout[si*len(set)+k] is the detector pair of service si and metric
	// set[k], or -1 when the baseline has no usable series for the pair:
	// the tolerant detector would skip its value.
	layout []int
	// pending collects completed windows, one slot per window start in
	// ascending order, until every service has reported that window.
	pending []*pendingWindow
	// spare holds emptied slots for the next window starts; named and hop
	// are Tick's and TickIndexed's scratch, refilled on every call (named is
	// cleared on return, so it keeps no caller's samples).
	spare []*pendingWindow
	named []ServiceSamples
	hop   []hopValue
	// hops counts emitted verdicts; lastAt stamps the newest one.
	hops   uint64
	lastAt sim.Time
}

// pendingWindow is one window start's completed windows, by service index.
type pendingWindow struct {
	start    sim.Time
	windows  []telemetry.Window
	reported []bool
	n        int // services reported so far
}

// ServiceSamples is one service's samples in an indexed tick: Service is
// the service's position in Pipeline.Services.
type ServiceSamples struct {
	Service int
	Samples []telemetry.Sample
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
	// The aggregator's service indices are the detector's.
	agg, err := NewAggregator(s.length, s.hop)
	if err != nil {
		return nil, err
	}
	d := loc.det
	for _, svc := range d.baseline.Services {
		agg.resolve(svc)
	}
	layout := make([]int, 0, len(d.baseline.Services)*len(s.set))
	for si := range d.baseline.Services {
		for _, m := range s.set {
			p := d.pairIndex(d.metricIndex[m.Name], si)
			if d.win.Meta(p).Flags&flagUsable == 0 {
				p = -1
			}
			layout = append(layout, p)
		}
	}
	return &Pipeline{set: s.set, agg: agg, loc: loc, layout: layout}, nil
}

// Services returns the pipeline's service order: the indices of an
// indexed tick (TickIndexed) are positions in it. The slice is the
// pipeline's own and must not be modified.
func (p *Pipeline) Services() []string { return p.agg.names }

// Localizer exposes the verdict engine (read-only between Ticks).
func (p *Pipeline) Localizer() *Localizer { return p.loc }

// Stats returns a copy of the pipeline's accounting.
func (p *Pipeline) Stats() PipelineStats {
	return PipelineStats{Aggregator: p.agg.Stats(), Hops: p.hops, LastVerdictAt: p.lastAt}
}

// Tick feeds one drained batch of samples (service -> samples, e.g. one
// Sampler.Drain) and returns the verdicts for every hop completed by it, in
// timeline order. Most ticks complete zero or one hop. A service the model
// lacks is ignored. Tick resolves the names and runs TickIndexed.
func (p *Pipeline) Tick(ctx context.Context, samples map[string][]telemetry.Sample) ([]*Verdict, error) {
	tick := p.named[:0]
	for svc, ss := range samples {
		if si, ok := p.agg.index[svc]; ok {
			tick = append(tick, ServiceSamples{Service: si, Samples: ss})
		}
	}
	verdicts, err := p.TickIndexed(ctx, tick)
	// The scratch must not pin the caller's samples until the next Tick.
	clear(tick)
	p.named = tick[:0]
	return verdicts, err
}

// TickIndexed is Tick over a tick in the pipeline's service indices
// (Services): each entry is one service's samples, and a service without
// an entry is absent from the tick. An entry with no samples still counts
// the service as seen, as an empty map entry does for Tick. A service
// appears at most once per tick; an index outside Services is an error.
func (p *Pipeline) TickIndexed(ctx context.Context, tick []ServiceSamples) ([]*Verdict, error) {
	services := len(p.agg.svcs)
	for _, e := range tick {
		if e.Service < 0 || e.Service >= services {
			return nil, fmt.Errorf("stream: tick names service index %d of %d", e.Service, services)
		}
	}
	for _, e := range tick {
		ws := p.agg.ingest(e.Service, e.Samples)
		for i := range ws {
			pw := p.slot(ws[i].Start)
			if !pw.reported[e.Service] {
				pw.reported[e.Service] = true
				pw.n++
			}
			pw.windows[e.Service] = ws[i]
		}
	}

	var out []*Verdict
	for i := 0; i < len(p.pending); {
		pw := p.pending[i]
		if pw.n < services {
			i++
			continue
		}
		// A pending window older than one we are about to emit means some
		// service's grid drifted: it produced this older window while
		// another never did. Surface that instead of growing the backlog.
		if i > 0 {
			return nil, fmt.Errorf("stream: service windows misaligned: window at %v still incomplete while %v is ready", p.pending[0].start, pw.start)
		}
		p.pending = append(p.pending[:0], p.pending[1:]...)
		v, err := p.step(ctx, pw)
		p.release(pw)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// slot returns the pending slot of the window starting at start, opening
// one in start order if there is none.
func (p *Pipeline) slot(start sim.Time) *pendingWindow {
	i := 0
	for ; i < len(p.pending) && p.pending[i].start <= start; i++ {
		if p.pending[i].start == start {
			return p.pending[i]
		}
	}
	var pw *pendingWindow
	if n := len(p.spare); n > 0 {
		pw, p.spare = p.spare[n-1], p.spare[:n-1]
	} else {
		services := len(p.agg.svcs)
		pw = &pendingWindow{windows: make([]telemetry.Window, services), reported: make([]bool, services)}
	}
	pw.start = start
	p.pending = slices.Insert(p.pending, i, pw)
	return pw
}

// release empties a pending slot for reuse.
func (p *Pipeline) release(pw *pendingWindow) {
	clear(pw.reported)
	pw.n = 0
	p.spare = append(p.spare, pw)
}

// step builds a fully reported window's hop as (pair, value) records from
// the pair layout and steps the localizer on it.
func (p *Pipeline) step(ctx context.Context, pw *pendingWindow) (*Verdict, error) {
	recs := p.hop[:0]
	k := len(p.set)
	for si := range pw.windows {
		sum := &pw.windows[si].Sum
		for j, pair := range p.layout[si*k : (si+1)*k] {
			if pair >= 0 {
				recs = append(recs, hopValue{pair: pair, v: p.set[j].Extract(*sum)})
			}
		}
	}
	p.hop = recs
	v, err := p.loc.stepRecords(ctx, pw.windows[0].End, recs)
	if err != nil {
		return nil, err
	}
	p.hops++
	p.lastAt = v.At
	return v, nil
}
