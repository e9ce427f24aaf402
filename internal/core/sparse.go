package core

import (
	"fmt"
	"slices"
	"sort"
)

// CausalIndex is the sparse vote-time representation of a model's causal
// sets: an inverted index mapping, per metric, each service to the (sorted)
// positions of the targets whose causal world contains it, plus the exact
// size of every causal set. Built from one model, it lets the vote phase
// score a metric in O(Σ_{s∈A} |postings(s)|) — the services with observed
// shifts — instead of walking the dense target × service matrix, which is
// what keeps a steady-state streaming hop flat as deployments grow to
// thousands of services.
//
// The index is immutable after construction and safe for concurrent readers.
type CausalIndex struct {
	model *Model
	// postings[metric][service] lists the indices into model.Targets (always
	// ascending) of targets with service ∈ C(target, metric).
	postings map[string]map[string][]int32
	// setSizes[metric][ti] is |C(model.Targets[ti], metric)| — the union
	// arithmetic for Jaccard scoring and the parsimony tie-break need sizes,
	// never the members.
	setSizes map[string][]int32
	// sortedTargets caches sort.Strings(model.Targets) for the
	// no-metric-voted fallback candidate set.
	sortedTargets []string
}

// NewCausalIndex validates model and builds its inverted index. It is the
// one place a model's consumers (the stream localizer, and through it serve's
// tenants) check it, so they refuse exactly what Validate refuses. Validate
// guarantees duplicate-free causal sets, which the index's size-based union
// arithmetic relies on.
func NewCausalIndex(model *Model) (*CausalIndex, error) {
	if model == nil {
		return nil, fmt.Errorf("core: causal index: nil model")
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("core: causal index: %w", err)
	}
	return buildCausalIndex(model), nil
}

// buildCausalIndex builds the inverted index of a model that already passed
// Validate.
func buildCausalIndex(model *Model) *CausalIndex {
	idx := &CausalIndex{
		model:    model,
		postings: make(map[string]map[string][]int32, len(model.Metrics)),
		setSizes: make(map[string][]int32, len(model.Metrics)),
	}
	for _, metric := range model.Metrics {
		post := make(map[string][]int32)
		sizes := make([]int32, len(model.Targets))
		for ti, target := range model.Targets {
			set := model.CausalSets[metric][target]
			for _, svc := range set {
				post[svc] = append(post[svc], int32(ti))
			}
			sizes[ti] = int32(len(set))
		}
		idx.postings[metric] = post
		idx.setSizes[metric] = sizes
	}
	idx.sortedTargets = append([]string(nil), model.Targets...)
	sort.Strings(idx.sortedTargets)
	return idx
}

// Model returns the model the index was built over.
func (idx *CausalIndex) Model() *Model { return idx.model }

// Postings reports the total number of (metric, service → target) index
// entries — the sparse representation's size, Σ_M Σ_t |C(t, M)|.
func (idx *CausalIndex) Postings() int {
	total := 0
	for _, post := range idx.postings {
		for _, ts := range post {
			total += len(ts)
		}
	}
	return total
}

// VoteScratch is reusable working storage for the vote's per-metric
// counting. A caller that votes hop after hop (the stream localizer) keeps
// one and passes it to Localizer.AggregateIndexedWith, so the counting
// allocates nothing once the scratch has grown. A VoteScratch is not safe
// for concurrent use; the zero value is ready to use.
type VoteScratch struct {
	hits    []int32 // the targets the anomalous services' postings name, repeats kept
	winners []int32 // the current argmax targets
}

// score computes the metric's argmax over targets touched by the anomaly set
// anom (sorted, duplicate-free — a Detection's Anomalous slice). Targets with
// an empty intersection score zero under every rule and can never win (the
// caller discards best <= 0), so skipping them reproduces a dense scan of
// every target exactly (TestAggregateIndexedMatchesDense); winners come out
// in ascending model.Targets order. A target's intersection count is the
// length of its run in the sorted postings hits.
//
// Under IntersectionVote a tie keeps only the targets with the smallest
// causal set — the Occam refinement of the paper's "closest set" criterion.
// Raw intersection counting cannot separate a target whose causal world is a
// superset of another's (the entry service of a call graph causally covers
// everything, so it ties every comparison); among explanations covering the
// same anomalies, the one that predicts the fewest unobserved effects
// explains the data better.
func (idx *CausalIndex) score(sc *VoteScratch, rule VoteRule, metric string, anom []string) (float64, []string) {
	post := idx.postings[metric]
	hits := sc.hits[:0]
	for _, s := range anom {
		hits = append(hits, post[s]...)
	}
	sc.hits = hits
	if len(hits) == 0 {
		return 0, nil
	}
	slices.Sort(hits)
	sizes := idx.setSizes[metric]
	parsimony := rule == IntersectionVote
	best, bestSize := -1.0, int32(0)
	winners := sc.winners[:0]
	for k := 0; k < len(hits); {
		ti := hits[k]
		t := k + 1
		for t < len(hits) && hits[t] == ti {
			t++
		}
		c, size := int32(t-k), sizes[ti]
		k = t
		var score float64
		if rule == JaccardVote {
			// |C ∪ A| = |C| + |A| − |C ∩ A|; both sets are duplicate-free.
			u := int(size) + len(anom) - int(c)
			score = float64(c) / float64(u)
		} else {
			score = float64(c)
		}
		switch {
		//vet:allow floateq -- tied targets compute the same integer ratio; exact tie detection is the vote-splitting rule
		case score > best, score == best && parsimony && size < bestSize:
			best, bestSize = score, size
			winners = append(winners[:0], ti)
		//vet:allow floateq -- tied targets compute the same integer ratio; exact tie detection is the vote-splitting rule
		case score == best && (!parsimony || size == bestSize):
			winners = append(winners, ti)
		}
	}
	sc.winners = winners
	names := make([]string, len(winners))
	for i, ti := range winners {
		names[i] = idx.model.Targets[ti]
	}
	return best, names
}
