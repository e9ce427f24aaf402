package core

import (
	"context"
	"fmt"
	"sort"

	"causalfl/internal/metrics"
	"causalfl/internal/parallel"
)

// VoteRule selects how a metric scores a candidate service against its
// anomalous set. The paper uses IntersectionVote; the alternatives exist for
// the ablation benchmarks.
type VoteRule int

const (
	// IntersectionVote scores |A(M) ∩ C(s, M)| (Algorithm 2 line 14) and
	// breaks ties toward the most parsimonious causal set. This is the
	// library default.
	IntersectionVote VoteRule = iota + 1
	// JaccardVote scores |A ∩ C| / |A ∪ C|, penalizing over-broad causal
	// sets.
	JaccardVote
	// PureIntersectionVote is the paper's Algorithm 2 verbatim: raw
	// |A ∩ C| with no tie-break. Kept for the ablation benchmarks; it
	// cannot separate a causal world from its supersets, so entry
	// services with universal causal sets absorb votes.
	PureIntersectionVote
)

// String returns the rule name.
func (v VoteRule) String() string {
	switch v {
	case IntersectionVote:
		return "intersection+parsimony"
	case JaccardVote:
		return "jaccard"
	case PureIntersectionVote:
		return "intersection"
	default:
		return "unknown"
	}
}

// Localizer implements Algorithm 2: majority-voting fault localization.
type Localizer struct {
	settings
}

// NewLocalizer constructs a localizer with the paper's defaults.
func NewLocalizer(opts ...Option) (*Localizer, error) {
	s, err := applyOptions(settings{
		rule:       IntersectionVote,
		minSamples: DefaultMinSamples,
	}, opts)
	if err != nil {
		return nil, err
	}
	return &Localizer{settings: s}, nil
}

// Localization is the output of Algorithm 2.
type Localization struct {
	// Candidates is the estimated fault-location set: every service tied
	// at the maximum vote count. Ideally a singleton; ties shrink
	// informativeness. When no metric cast a vote but data was available,
	// the candidate set is all trained targets — the algorithm learned
	// nothing. When Abstained is set, Candidates is nil.
	Candidates []string
	// Abstained marks a localization that could not run at all: every
	// metric was too degraded to test even one (metric, service) pair.
	// The degradation evidence is in MetricCoverage and Degradation.
	Abstained bool
	// Votes maps each candidate target to its accumulated (possibly
	// fractional, when per-metric winners tie) vote mass.
	Votes map[string]float64
	// Anomalies records A(M) per metric for interpretability — the paper
	// emphasizes that interventional approaches stay explainable.
	Anomalies map[string][]string
	// MetricWinners records the per-metric argmax set (the services that
	// tied for the best match under that metric).
	MetricWinners map[string][]string
	// MetricCoverage maps each metric to the fraction of the model's
	// services whose production series was testable, in [0,1]. All 1 on
	// clean data.
	MetricCoverage map[string]float64
	// Degradation summarizes the production snapshot measured against the
	// model's metric×service grid.
	Degradation *metrics.DegradationReport
}

// Localize runs Algorithm 2 against production data. The production snapshot
// may be incomplete or contain non-finite values: untestable (metric,
// service) pairs are skipped, votes from partially covered metrics are
// down-weighted by their coverage, and when every metric is completely dark
// the result is an explicit abstention (Abstained=true, nil Candidates) with
// the coverage evidence attached — never an error or panic. On a clean
// full-grid snapshot the result is identical to strict localization.
//
// Anomaly detection fans out per metric across the localizer's worker pool
// (detectAll); the vote then runs serially over the metrics in model order,
// so the result is byte-identical at every worker count.
func (lo *Localizer) Localize(ctx context.Context, model *Model, production *metrics.Snapshot) (*Localization, error) {
	detections, err := lo.detectAll(ctx, "localize", model, production)
	if err != nil {
		return nil, err
	}
	out, err := lo.AggregateIndexed(buildCausalIndex(model), detections)
	if err != nil {
		return nil, err
	}
	out.Degradation = metrics.AssessOver(production, model.Metrics, model.Services)
	return out, nil
}

// detectAll is the detection half shared by Localize and LocalizeMulti: it
// validates the model, falls back to the model's alpha, and runs one
// tolerant Detect per model metric across the worker pool. Each metric is a
// complete p-value family decided inside its worker, and the results come
// back in model order, so they are byte-identical at every worker count.
func (lo *Localizer) detectAll(ctx context.Context, op string, model *Model, production *metrics.Snapshot) ([]*Detection, error) {
	if model == nil {
		return nil, fmt.Errorf("core: %s: nil model", op)
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", op, err)
	}
	if production == nil {
		return nil, fmt.Errorf("core: %s: nil production snapshot", op)
	}
	cfg := DetectConfig{
		RawKS:      lo.rawKS,
		Alpha:      lo.alpha,
		FDR:        lo.fdrQ,
		MinSamples: lo.minSamples,
		Tolerant:   true,
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = model.Alpha
	}
	return parallel.Map(ctx, lo.workers, len(model.Metrics), func(ctx context.Context, i int) (*Detection, error) {
		return Detect(ctx, cfg, model.Baseline, production, model.Metrics[i])
	})
}

// AggregateIndexed is the vote phase of Algorithm 2, split from anomaly
// detection: it turns one Detection per model metric (aligned with the
// indexed model's Metrics by index) into a Localization, scoring each metric
// over the causal index at a cost proportional to the anomaly evidence
// rather than the deployment width. Localize feeds it the batch detections;
// the streaming engine (internal/stream) feeds it per-hop incremental
// detections, so a streaming verdict and a batch localization over the same
// anomaly evidence are the same computation. The Degradation field is left
// nil — it describes a production snapshot, which the vote never sees.
func (lo *Localizer) AggregateIndexed(idx *CausalIndex, detections []*Detection) (*Localization, error) {
	return lo.AggregateIndexedWith(new(VoteScratch), idx, detections)
}

// AggregateIndexedWith is AggregateIndexed counting the votes in the
// caller's scratch, which it reuses instead of allocating: only the returned
// Localization is new. The result does not alias the scratch, so the caller
// may pass the same one to the next call.
func (lo *Localizer) AggregateIndexedWith(sc *VoteScratch, idx *CausalIndex, detections []*Detection) (*Localization, error) {
	if idx == nil {
		return nil, fmt.Errorf("core: aggregate: nil causal index")
	}
	model := idx.model
	if len(detections) != len(model.Metrics) {
		return nil, fmt.Errorf("core: aggregate: %d detections for %d model metrics", len(detections), len(model.Metrics))
	}
	for i, d := range detections {
		if d == nil {
			return nil, fmt.Errorf("core: aggregate: nil detection for metric %q", model.Metrics[i])
		}
	}
	out := &Localization{
		// Sized for the handful of winners a hop produces, not the target
		// universe: at 4096 targets a full-size hint would dominate a
		// steady-state hop's allocations.
		Votes:          make(map[string]float64, 8),
		Anomalies:      make(map[string][]string, len(model.Metrics)),
		MetricWinners:  make(map[string][]string, len(model.Metrics)),
		MetricCoverage: make(map[string]float64, len(model.Metrics)),
	}

	testedAny := false
	for i, metric := range model.Metrics {
		anom, tested := detections[i].Anomalous, detections[i].Tested
		coverage := 0.0
		if n := len(model.Services); n > 0 {
			coverage = float64(tested) / float64(n)
		}
		out.MetricCoverage[metric] = coverage
		if tested == 0 {
			// The metric is completely dark: no pair was testable, so
			// it can neither vote nor attest health.
			continue
		}
		testedAny = true
		out.Anomalies[metric] = anom
		if len(anom) == 0 {
			// Nothing anomalous under this metric: abstain rather
			// than vote for an arbitrary tie of everything.
			continue
		}
		// s* = argmax_s score(A(M), C(s, M)) over trained targets.
		best, winners := idx.score(sc, lo.rule, metric, anom)
		if best <= 0 {
			// The anomalies match no learned world at all.
			continue
		}
		out.MetricWinners[metric] = winners
		// Ties split the metric's vote evenly; a partially covered metric
		// casts proportionally less mass (coverage 1 on clean data, so
		// the weighting is invisible there) — a metric that saw half its
		// services should not outvote one that saw them all.
		share := coverage / float64(len(winners))
		for _, w := range winners {
			out.Votes[w] += share
		}
	}

	if !testedAny {
		// Every metric was dark: abstain explicitly instead of guessing.
		out.Abstained = true
		return out, nil
	}
	out.Candidates = argmaxVotes(out.Votes)
	if len(out.Candidates) == 0 {
		// No metric voted: return the uninformative full candidate set.
		out.Candidates = append([]string(nil), idx.sortedTargets...)
	}
	return out, nil
}

// LocalizeMulti is the concurrent-fault extension of Algorithm 2: a greedy
// explain-away loop for up to k simultaneous faults. Each round scores every
// trained target against the *remaining* anomalies, commits the best
// explainer, removes the anomalies its worlds cover, and repeats until the
// anomalies are exhausted or k faults are named.
//
// The per-metric score is the precision-weighted F-measure (F_0.5) of the
// causal set against the anomaly set. Two failure modes shape this choice:
// raw intersection counting attributes every concurrent failure to the entry
// service (its universal world is a superset of any anomaly union), and even
// Jaccard lets one broad imprecise world outscore two exact narrow covers.
// Weighting precision doubly means a world that predicts unobserved
// anomalies is distrusted — whatever it fails to cover is simply explained
// by the next round.
func (lo *Localizer) LocalizeMulti(ctx context.Context, model *Model, production *metrics.Snapshot, k int) ([]string, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: localize-multi needs k >= 1, got %d", k)
	}
	// Anomalies per metric, computed once and consumed round by round. The
	// tolerant path skips untestable pairs, so degraded production
	// snapshots narrow the anomaly evidence instead of erroring.
	detections, err := lo.detectAll(ctx, "localize-multi", model, production)
	if err != nil {
		return nil, err
	}
	remaining := make(map[string]map[string]bool, len(model.Metrics))
	for i, metric := range model.Metrics {
		set := make(map[string]bool, len(detections[i].Anomalous))
		for _, s := range detections[i].Anomalous {
			set[s] = true
		}
		remaining[metric] = set
	}

	var found []string
	taken := make(map[string]bool, k)
	for len(found) < k {
		best := 0.0
		winner := ""
		for _, target := range model.Targets {
			if taken[target] {
				continue
			}
			score := 0.0
			for _, metric := range model.Metrics {
				anom := remaining[metric]
				if len(anom) == 0 {
					continue
				}
				set := model.CausalSets[metric][target]
				inter := float64(intersectionSize(set, anom))
				if inter == 0 {
					continue
				}
				precision := inter / float64(len(set))
				recall := inter / float64(len(anom))
				// F_0.5 = 1.25·P·R / (0.25·P + R).
				score += 1.25 * precision * recall / (0.25*precision + recall)
			}
			//vet:allow floateq -- exact tie → alphabetical winner keeps greedy selection deterministic
			if score > best || (score == best && score > 0 && (winner == "" || target < winner)) {
				best = score
				winner = target
			}
		}
		if winner == "" {
			break
		}
		found = append(found, winner)
		taken[winner] = true
		// Explain away: the committed fault accounts for its worlds.
		for _, metric := range model.Metrics {
			for _, svc := range model.CausalSets[metric][winner] {
				delete(remaining[metric], svc)
			}
		}
	}
	return found, nil
}

// Ranked returns every target that received vote mass, ordered by
// descending votes (ties alphabetically). It supports the multi-fault
// extension: with k concurrent faults, each tends to win the metrics whose
// causal world it matches, so the true faults surface in the top ranks even
// though Algorithm 2 was designed for a single fault.
func (l *Localization) Ranked() []string {
	out := make([]string, 0, len(l.Votes))
	for s := range l.Votes {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		vi, vj := l.Votes[out[i]], l.Votes[out[j]]
		//vet:allow floateq -- sort tie-break: exact equality falls through to the alphabetical order
		if vi != vj {
			return vi > vj
		}
		return out[i] < out[j]
	})
	return out
}

// argmaxVotes returns the sorted set of services holding the maximum
// positive vote mass.
func argmaxVotes(votes map[string]float64) []string {
	best := 0.0
	for _, v := range votes {
		if v > best {
			best = v
		}
	}
	if best == 0 {
		return nil
	}
	const eps = 1e-9
	var out []string
	for s, v := range votes {
		if v >= best-eps {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
