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
	hyst  hysteresis

	// Per-hop working storage, reused by every Step: the vote's counting
	// scratch and the detections handed to the vote, one per model metric.
	vote core.VoteScratch
	dets []*core.Detection
}

// hysteresis is the K-of-N filter over the candidate sets of the last N
// hops: a fixed ring of N sets, the oldest overwritten first, and a running
// count per service of the retained sets naming it. Hops where no metric
// cast a vote contribute an empty set, so quiet periods break confirmation
// streaks instead of sustaining them.
type hysteresis struct {
	k      int
	sets   [][]string     // the ring: N slots, each set sorted and duplicate-free
	filled int            // retained sets, at most N
	next   int            // the slot the next set fills: the oldest once the ring is full
	counts map[string]int // per service: how many retained sets name it
}

func newHysteresis(k, n int) hysteresis {
	return hysteresis{k: k, sets: make([][]string, n), counts: make(map[string]int)}
}

// horizon reports N, the number of sets the filter retains.
func (h *hysteresis) horizon() int { return len(h.sets) }

// push retains a copy of set, evicting the oldest retained set once N are.
func (h *hysteresis) push(set []string) {
	slot := h.sets[h.next]
	if h.filled == len(h.sets) {
		for _, s := range slot {
			if h.counts[s]--; h.counts[s] == 0 {
				delete(h.counts, s)
			}
		}
	} else {
		h.filled++
	}
	for _, s := range set {
		h.counts[s]++
	}
	h.sets[h.next] = append(slot[:0], set...)
	h.next = (h.next + 1) % len(h.sets)
}

// retained returns copies of the retained sets, oldest first.
func (h *hysteresis) retained() [][]string {
	out := make([][]string, h.filled)
	for j := range out {
		set := h.sets[(h.next-h.filled+j+len(h.sets))%len(h.sets)]
		out[j] = append(make([]string, 0, len(set)), set...)
	}
	return out
}

// confirmed returns the sorted services named in at least K of the retained
// sets, or nil when none is.
func (h *hysteresis) confirmed() []string {
	var out []string
	for s, n := range h.counts {
		if n >= h.k {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// NewLocalizer builds a streaming localizer for a trained model. Its
// detector reads the model's sorted baseline series in place (core.Model):
// the caller must not modify model.Baseline while the localizer is in use.
// A hand-built model's unsorted series are sorted into private copies.
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
	dets := make([]*core.Detection, len(model.Metrics))
	for i := range dets {
		dets[i] = new(core.Detection)
	}
	return &Localizer{
		idx:   idx,
		det:   det,
		voter: voter,
		hyst:  newHysteresis(hystK, hystN),
		dets:  dets,
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
// caller may clear and refill them for the next hop. Step resolves the
// names through Detector.ObserveHop; Pipeline passes its hops as resolved
// records to the same core.
//
// Only what the returned Verdict holds is allocated: the Verdict, its
// Candidates, Votes and Confirmed, and Full with its maps and per-metric
// anomaly and winner slices. A subscriber may retain all of it; nothing in
// it aliases the Localizer's state. The detector's state, the vote's
// counting and the hysteresis ring reuse storage from hop to hop.
func (l *Localizer) Step(ctx context.Context, at sim.Time, hop map[string]map[string]float64) (*Verdict, error) {
	if err := l.det.ObserveHop(hop); err != nil {
		return nil, err
	}
	return l.localize(ctx, at)
}

// stepRecords is Step over a hop already resolved to (pair, value)
// records, as Pipeline builds them from its pair layout.
func (l *Localizer) stepRecords(ctx context.Context, at sim.Time, recs []hopValue) (*Verdict, error) {
	l.det.observe(recs)
	return l.localize(ctx, at)
}

// localize re-localizes after a hop's values were pushed: flush, detect,
// vote, hysteresis.
func (l *Localizer) localize(ctx context.Context, at sim.Time) (*Verdict, error) {
	if err := l.det.detectInto(ctx, l.idx.Model().Metrics, l.dets); err != nil {
		return nil, err
	}
	loc, err := l.voter.AggregateIndexedWith(&l.vote, l.idx, l.dets)
	if err != nil {
		return nil, err
	}

	// Hysteresis bookkeeping: only hops where some metric actually voted
	// contribute their candidates; abstentions and no-vote hops (whose
	// candidate set is the uninformative full target list) push an empty
	// set, so a healthy stream never accumulates confirmations.
	var set []string
	if len(loc.Votes) > 0 {
		set = loc.Candidates
	}
	l.hyst.push(set)

	return &Verdict{
		At:         at,
		Candidates: loc.Candidates,
		Votes:      loc.Votes,
		Abstained:  loc.Abstained,
		Confirmed:  l.hyst.confirmed(),
		Full:       loc,
	}, nil
}
