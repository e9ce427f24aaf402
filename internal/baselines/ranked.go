// Ranked extension of the Technique interface: techniques that can order
// every service by suspicion, not just emit a flat candidate set. The arena
// (internal/arena) uses the ranking for top-1/top-3 accuracy; plain
// set-valued techniques are graded on their sets alone.
package baselines

import (
	"context"
	"sort"

	"causalfl/internal/metrics"
)

// Scored is one ranked localization candidate. Higher scores are more
// suspicious; ties are broken by service name so rankings are deterministic.
type Scored struct {
	Service string
	Score   float64
}

// RankedTechnique extends Technique with an ordered verdict. The contract
// mirrors core.Localization.Ranked(): scores descending, name-ascending on
// ties, and the leading tie group equal to what Localize returns whenever
// the technique's set verdict is score-derived.
type RankedTechnique interface {
	Technique
	// LocalizeRanked returns every scoreable service ordered by
	// suspicion. Train must have been called first.
	LocalizeRanked(ctx context.Context, production *metrics.Snapshot) ([]Scored, error)
}

// sortScored orders candidates score-descending with name-ascending
// tiebreaks, in place.
func sortScored(ranked []Scored) {
	sort.Slice(ranked, func(i, j int) bool {
		//vet:allow floateq -- sort tie-break: exact equality falls through to the alphabetical order
		if ranked[i].Score != ranked[j].Score {
			return ranked[i].Score > ranked[j].Score
		}
		return ranked[i].Service < ranked[j].Service
	})
}

// RankedOrSets adapts any Technique to a ranked verdict: a RankedTechnique
// is asked for its ranking, anything else has the candidate set it already
// answered for production (cands) lifted to a uniform-score ranking (each
// candidate scored 1, everything else omitted). A set-only technique is
// never asked twice, so the ranking grades the same answer as the set.
func RankedOrSets(ctx context.Context, tech Technique, production *metrics.Snapshot, cands []string) ([]Scored, error) {
	if rt, ok := tech.(RankedTechnique); ok {
		return rt.LocalizeRanked(ctx, production)
	}
	ranked := make([]Scored, 0, len(cands))
	for _, svc := range cands {
		ranked = append(ranked, Scored{Service: svc, Score: 1})
	}
	sortScored(ranked)
	return ranked, nil
}
