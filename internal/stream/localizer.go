package stream

import (
	"context"
	"fmt"
	"sort"

	"causalfl/internal/core"
	"causalfl/internal/sim"
)

// Default hysteresis: a service must be a top candidate in at least 3 of the
// last 5 hops before it is confirmed. One anomalous window on one metric can
// flip a single hop's vote; demanding K-of-N agreement suppresses that flap
// without adding latency beyond (K-1) hops after a genuine fault.
const (
	DefaultHystK = 3
	DefaultHystN = 5
)

// Verdict is one hop's localization outcome on the stream timeline.
type Verdict struct {
	// At is the virtual timestamp of the window end this verdict reflects:
	// every sample up to At has been ingested, none after.
	At sim.Time `json:"at"`
	// Candidates, Votes and Abstained are the hop's raw vote outcome —
	// exactly core.Localization's fields for the materialized window.
	Candidates []string           `json:"candidates,omitempty"`
	Votes      map[string]float64 `json:"votes,omitempty"`
	Abstained  bool               `json:"abstained,omitempty"`
	// Confirmed is the hysteresis-filtered localization: services that
	// were top candidates in at least K of the last N voted hops. Empty
	// until a fault signal persists.
	Confirmed []string `json:"confirmed,omitempty"`
	// Full is the complete vote-phase output for in-process consumers
	// (coverage, per-metric winners, anomaly sets). Not serialized: the
	// timeline JSON stays one small object per hop.
	Full *core.Localization `json:"-"`
}

// Localizer is the streaming counterpart of core.Localizer: a Detector per
// trained model plus the batch vote phase (core.Localizer.AggregateIndexed) plus
// K-of-N hysteresis over the emitted candidate sets. Each Step ingests one
// hop and re-localizes incrementally; the vote phase runs over the model's
// sparse causal index (core.CausalIndex), so a hop's vote cost scales with
// the anomalous sets, not the target universe.
//
// A Localizer is not safe for concurrent use; Step parallelizes internally,
// in the detector's flush of the pairs a hop touched (WithWorkers).
type Localizer struct {
	idx   *core.CausalIndex
	det   *Detector
	voter *core.Localizer
	hystK int
	hystN int
	// history holds the candidate sets of the last hystN hops, oldest
	// first. Hops where no metric cast a vote contribute an empty set, so
	// quiet periods break confirmation streaks instead of sustaining them.
	history []map[string]bool
}

// NewLocalizer builds a streaming localizer for a trained model. Its
// detector reads the model's baseline series in place: the caller must not
// modify model.Baseline while the localizer is in use.
// Detection is always tolerant, as in the batch localizer; WithTolerant is
// ignored.
func NewLocalizer(model *core.Model, opts ...Option) (*Localizer, error) {
	s, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	return newLocalizer(model, s)
}

// newLocalizer builds a Localizer from resolved settings (shared with
// NewPipeline, which applies the option list once).
func newLocalizer(model *core.Model, s settings) (*Localizer, error) {
	if model == nil {
		return nil, fmt.Errorf("stream: nil model")
	}
	// The index validates the model: the detector below may assume its
	// baseline declares exactly the model's services and metrics.
	idx, err := core.NewCausalIndex(model)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	hystK, hystN := s.hystK, s.hystN
	if hystK == 0 && hystN == 0 {
		hystK, hystN = DefaultHystK, DefaultHystN
	}
	ds := s
	if ds.alpha == 0 {
		// Fall back to the model's training alpha, exactly as the batch
		// localizer does.
		ds.alpha = model.Alpha
	}
	ds.tolerant = true // the batch localizer always detects tolerantly
	det, err := newDetector(model.Baseline, ds)
	if err != nil {
		return nil, err
	}
	var copts []core.Option
	if s.rule != 0 {
		copts = append(copts, core.WithVoteRule(s.rule))
	}
	voter, err := core.NewLocalizer(copts...)
	if err != nil {
		return nil, err
	}
	return &Localizer{
		idx:   idx,
		det:   det,
		voter: voter,
		hystK: hystK,
		hystN: hystN,
	}, nil
}

// Detector exposes the underlying detector, read-only between Steps — the
// conformance suite uses it to materialize the batch-equivalent snapshot.
func (l *Localizer) Detector() *Detector { return l.det }

// Step ingests one hop (metric -> service -> window value) stamped at the
// window end `at`, then re-localizes: the detector flushes the touched
// pairs across the worker pool, the model's per-metric detections are read
// from the flushed aggregates, the vote phase is core.Localizer.AggregateIndexed
// over the sparse causal index, and the hysteresis filter updates last. The returned
// Verdict's vote fields are byte-identical to core.Localizer.Localize on the
// materialized windows. Step does not retain hop or its inner maps: the
// caller may clear and refill them for the next hop (Pipeline.Tick does).
func (l *Localizer) Step(ctx context.Context, at sim.Time, hop map[string]map[string]float64) (*Verdict, error) {
	if err := l.det.ObserveHop(hop); err != nil {
		return nil, err
	}
	detections, err := l.det.detectEach(ctx, l.idx.Model().Metrics)
	if err != nil {
		return nil, err
	}
	loc, err := l.voter.AggregateIndexed(l.idx, detections)
	if err != nil {
		return nil, err
	}

	// Hysteresis bookkeeping: only hops where some metric actually voted
	// contribute their candidates; abstentions and no-vote hops (whose
	// candidate set is the uninformative full target list) push an empty
	// set, so a healthy stream never accumulates confirmations.
	set := make(map[string]bool)
	if len(loc.Votes) > 0 {
		for _, c := range loc.Candidates {
			set[c] = true
		}
	}
	l.history = append(l.history, set)
	if len(l.history) > l.hystN {
		l.history = l.history[1:]
	}

	return &Verdict{
		At:         at,
		Candidates: loc.Candidates,
		Votes:      loc.Votes,
		Abstained:  loc.Abstained,
		Confirmed:  l.confirmed(),
		Full:       loc,
	}, nil
}

// confirmed returns the sorted services named top candidate in at least
// hystK of the retained hops.
func (l *Localizer) confirmed() []string {
	counts := make(map[string]int)
	for _, set := range l.history {
		for s := range set {
			counts[s]++
		}
	}
	var out []string
	for s, n := range counts {
		if n >= l.hystK {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
