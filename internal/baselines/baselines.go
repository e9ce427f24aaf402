// Package baselines implements the comparison techniques the paper evaluates
// against (§VI-B, §VII):
//
//   - ErrLogOnly — the AAAI-22 approach [23]: interventional causal learning
//     restricted to the error-log-rate metric, with the paper's verbatim
//     intersection vote. Error logs see only the response path, so omission
//     faults and silently-handled errors escape it.
//   - SingleWorld — a Ψ-FCI-style learner [24], [40]: it assumes one causal
//     graph explains all metrics and therefore learns the union world
//     "s' is affected by s if *any* metric shifts". Collapsing the
//     per-metric worlds destroys the identifiability the paper's §III-B
//     discusses.
//   - Observational — no interventions at all: it ranks services by how many
//     metrics flag them anomalous against the baseline, the data-driven
//     strategy of the observational RCA literature [6]-[13].
//   - RandomGuess — the sanity floor.
//
// All techniques consume the same collected datasets through the Technique
// interface so comparisons are apples-to-apples.
package baselines

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/stats"
)

// Technique is one fault-localization method under comparison. Both phases
// take a context: training runs full campaigns worth of statistics and
// localization fans out across worker pools, so cancellation must reach them
// (the same contract core.Learner/Localizer adopted in the core API redesign).
type Technique interface {
	// Name identifies the technique in reports.
	Name() string
	// Train fits the technique on the training campaign's datasets. The
	// snapshots carry the union of all metrics; techniques project what
	// they need.
	Train(ctx context.Context, baseline *metrics.Snapshot, interventions map[string]*metrics.Snapshot) error
	// Localize returns the candidate fault-location set for production
	// data. Train must have been called first.
	Localize(ctx context.Context, production *metrics.Snapshot) ([]string, error)
}

// Paper wraps the repository's own method (core.Learner + core.Localizer) as
// a Technique, restricted to the given metric names.
type Paper struct {
	// MetricNames restricts the snapshots (nil means use all).
	MetricNames []string
	// Rule selects the vote rule (zero means core.IntersectionVote).
	Rule core.VoteRule
	// Alpha is the significance level (zero means core.DefaultAlpha).
	Alpha float64
	// Label overrides the reported name (used by derived baselines that
	// reuse this wrapper, like the error-log-only technique).
	Label string
	// Test overrides the two-sample decision rule (nil means the core
	// default, a guarded KS test). Used by the decision-rule ablation.
	Test stats.TwoSampleTest
	// FDR, when nonzero, replaces per-test alpha with Benjamini-Hochberg
	// control at this level for both learning and localization.
	FDR float64

	model *core.Model
}

var _ RankedTechnique = (*Paper)(nil)

// Name implements Technique.
func (p *Paper) Name() string {
	if p.Label != "" {
		return p.Label
	}
	rule := p.Rule
	if rule == 0 {
		rule = core.IntersectionVote
	}
	return "causalfl/" + rule.String()
}

// Train implements Technique.
func (p *Paper) Train(ctx context.Context, baseline *metrics.Snapshot, interventions map[string]*metrics.Snapshot) error {
	baseline, interventions, err := project(p.MetricNames, baseline, interventions)
	if err != nil {
		return fmt.Errorf("baselines: %s: %w", p.Name(), err)
	}
	learner, err := core.NewLearner(p.options()...)
	if err != nil {
		return err
	}
	p.model, err = learner.Learn(ctx, baseline, interventions)
	return err
}

// options assembles the core options the fields set. One list serves both
// constructors: the learner ignores the vote rule, and the localizer's
// alpha defaults to the model's, which is this alpha.
func (p *Paper) options() []core.Option {
	var opts []core.Option
	if p.Alpha != 0 {
		opts = append(opts, core.WithAlpha(p.Alpha))
	}
	if p.Rule != 0 {
		opts = append(opts, core.WithVoteRule(p.Rule))
	}
	if p.Test != nil {
		opts = append(opts, core.WithTest(p.Test))
	}
	if p.FDR != 0 {
		opts = append(opts, core.WithFDR(p.FDR))
	}
	return opts
}

// localize runs the trained model on production, projected to MetricNames.
func (p *Paper) localize(ctx context.Context, production *metrics.Snapshot) (*core.Localization, error) {
	if p.model == nil {
		return nil, fmt.Errorf("baselines: %s: localize before Train", p.Name())
	}
	if p.MetricNames != nil {
		var err error
		production, err = production.Project(p.MetricNames)
		if err != nil {
			return nil, err
		}
	}
	localizer, err := core.NewLocalizer(p.options()...)
	if err != nil {
		return nil, err
	}
	return localizer.Localize(ctx, p.model, production)
}

// Localize implements Technique.
func (p *Paper) Localize(ctx context.Context, production *metrics.Snapshot) ([]string, error) {
	loc, err := p.localize(ctx, production)
	if err != nil {
		return nil, err
	}
	return loc.Candidates, nil
}

// LocalizeRanked implements RankedTechnique: targets ordered by the
// localizer's vote mass.
func (p *Paper) LocalizeRanked(ctx context.Context, production *metrics.Snapshot) ([]Scored, error) {
	loc, err := p.localize(ctx, production)
	if err != nil {
		return nil, err
	}
	ranked := make([]Scored, 0, len(loc.Votes))
	for _, svc := range loc.Ranked() {
		ranked = append(ranked, Scored{Service: svc, Score: loc.Votes[svc]})
	}
	return ranked, nil
}

// project restricts the training snapshots to the named metrics.
func project(names []string, baseline *metrics.Snapshot, interventions map[string]*metrics.Snapshot) (*metrics.Snapshot, map[string]*metrics.Snapshot, error) {
	if names == nil {
		return baseline, interventions, nil
	}
	pb, err := baseline.Project(names)
	if err != nil {
		return nil, nil, err
	}
	pi := make(map[string]*metrics.Snapshot, len(interventions))
	for target, snap := range interventions {
		ps, err := snap.Project(names)
		if err != nil {
			return nil, nil, err
		}
		pi[target] = ps
	}
	return pb, pi, nil
}

// ErrLogOnly is the [23]-style baseline: interventional causal learning over
// the error-log-rate metric only, with the verbatim intersection vote.
func ErrLogOnly() Technique {
	return &Paper{
		MetricNames: []string{metrics.ErrLogRate.Name},
		Rule:        core.PureIntersectionVote,
		Label:       "errlog-only[23]",
	}
}

// sortedAnomalyUnion and friends support SingleWorld and Observational.

// SingleWorld learns one causal world per intervention as the union of the
// per-metric worlds, modelling learners that assume a single causal graph
// generates every metric.
type SingleWorld struct {
	// Alpha is the significance level (zero means core.DefaultAlpha).
	Alpha float64

	baseline *metrics.Snapshot
	worlds   map[string]map[string]bool // target -> union causal set
	targets  []string
}

var _ RankedTechnique = (*SingleWorld)(nil)

// Name implements Technique.
func (s *SingleWorld) Name() string { return "single-world" }

// Train implements Technique.
func (s *SingleWorld) Train(ctx context.Context, baseline *metrics.Snapshot, interventions map[string]*metrics.Snapshot) error {
	alpha := s.Alpha
	if alpha == 0 {
		alpha = core.DefaultAlpha
	}
	learner, err := core.NewLearner(core.WithAlpha(alpha))
	if err != nil {
		return err
	}
	model, err := learner.Learn(ctx, baseline, interventions)
	if err != nil {
		return fmt.Errorf("baselines: single-world: %w", err)
	}
	s.baseline = model.Baseline
	s.targets = model.Targets
	s.worlds = make(map[string]map[string]bool, len(model.Targets))
	for _, target := range model.Targets {
		union := make(map[string]bool)
		for _, metric := range model.Metrics {
			for _, svc := range model.CausalSets[metric][target] {
				union[svc] = true
			}
		}
		s.worlds[target] = union
	}
	return nil
}

// Localize implements Technique: anomalies under the joint view (any metric
// shifts) matched against the union worlds by intersection size.
func (s *SingleWorld) Localize(ctx context.Context, production *metrics.Snapshot) ([]string, error) {
	scores, err := s.scores(ctx, production)
	if err != nil {
		return nil, err
	}
	best := 0
	var winners []string
	for _, target := range s.targets {
		n := scores[target]
		switch {
		case n > best:
			best = n
			winners = []string{target}
		case n == best && n > 0:
			winners = append(winners, target)
		}
	}
	if len(winners) == 0 {
		winners = append(winners, s.targets...)
	}
	sort.Strings(winners)
	return winners, nil
}

// LocalizeRanked implements RankedTechnique: targets ordered by the size of
// the intersection between the joint anomaly set and their union world.
func (s *SingleWorld) LocalizeRanked(ctx context.Context, production *metrics.Snapshot) ([]Scored, error) {
	scores, err := s.scores(ctx, production)
	if err != nil {
		return nil, err
	}
	ranked := make([]Scored, 0, len(s.targets))
	for _, target := range s.targets {
		ranked = append(ranked, Scored{Service: target, Score: float64(scores[target])})
	}
	sortScored(ranked)
	return ranked, nil
}

// scores computes the per-target intersection sizes shared by Localize and
// LocalizeRanked.
func (s *SingleWorld) scores(ctx context.Context, production *metrics.Snapshot) (map[string]int, error) {
	if s.worlds == nil {
		return nil, fmt.Errorf("baselines: single-world: Localize before Train")
	}
	alpha := s.Alpha
	if alpha == 0 {
		alpha = core.DefaultAlpha
	}
	anom, err := jointAnomalies(ctx, alpha, s.baseline, production)
	if err != nil {
		return nil, err
	}
	scores := make(map[string]int, len(s.targets))
	for _, target := range s.targets {
		n := 0
		for svc := range anom {
			if s.worlds[target][svc] {
				n++
			}
		}
		scores[target] = n
	}
	return scores, nil
}

// jointAnomalies returns the services flagged by any metric.
func jointAnomalies(ctx context.Context, alpha float64, baseline, production *metrics.Snapshot) (map[string]bool, error) {
	counts, err := anomalyCounts(ctx, alpha, baseline, production)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(counts))
	for svc := range counts {
		out[svc] = true
	}
	return out, nil
}

// anomalyCounts returns, per service, how many metrics flag it anomalous
// against the baseline. Services no metric flags are absent.
func anomalyCounts(ctx context.Context, alpha float64, baseline, production *metrics.Snapshot) (map[string]int, error) {
	cfg := core.DetectConfig{Test: defaultTest(), Alpha: alpha}
	out := make(map[string]int)
	for _, metric := range baseline.Metrics {
		det, err := core.Detect(ctx, cfg, baseline, production, metric)
		if err != nil {
			return nil, err
		}
		for _, svc := range det.Anomalous {
			out[svc]++
		}
	}
	return out, nil
}

// Observational ranks services by how many metrics flag them anomalous,
// without any interventional knowledge.
type Observational struct {
	// Alpha is the significance level (zero means core.DefaultAlpha).
	Alpha float64

	baseline *metrics.Snapshot
}

var _ RankedTechnique = (*Observational)(nil)

// Name implements Technique.
func (o *Observational) Name() string { return "observational" }

// Train implements Technique: only the baseline is retained; interventional
// datasets are deliberately ignored.
func (o *Observational) Train(_ context.Context, baseline *metrics.Snapshot, _ map[string]*metrics.Snapshot) error {
	if baseline == nil {
		return fmt.Errorf("baselines: observational: nil baseline")
	}
	if err := baseline.Validate(); err != nil {
		return err
	}
	o.baseline = baseline.Clone()
	return nil
}

// Localize implements Technique.
func (o *Observational) Localize(ctx context.Context, production *metrics.Snapshot) ([]string, error) {
	score, err := o.scores(ctx, production)
	if err != nil {
		return nil, err
	}
	best := 0
	for _, n := range score {
		if n > best {
			best = n
		}
	}
	var winners []string
	if best > 0 {
		for svc, n := range score {
			if n == best {
				winners = append(winners, svc)
			}
		}
	} else {
		winners = append(winners, o.baseline.Services...)
	}
	sort.Strings(winners)
	return winners, nil
}

// LocalizeRanked implements RankedTechnique: services ordered by how many
// metrics flag them anomalous.
func (o *Observational) LocalizeRanked(ctx context.Context, production *metrics.Snapshot) ([]Scored, error) {
	score, err := o.scores(ctx, production)
	if err != nil {
		return nil, err
	}
	ranked := make([]Scored, 0, len(o.baseline.Services))
	for _, svc := range o.baseline.Services {
		ranked = append(ranked, Scored{Service: svc, Score: float64(score[svc])})
	}
	sortScored(ranked)
	return ranked, nil
}

// scores counts flagging metrics per service.
func (o *Observational) scores(ctx context.Context, production *metrics.Snapshot) (map[string]int, error) {
	if o.baseline == nil {
		return nil, fmt.Errorf("baselines: observational: Localize before Train")
	}
	alpha := o.Alpha
	if alpha == 0 {
		alpha = core.DefaultAlpha
	}
	return anomalyCounts(ctx, alpha, o.baseline, production)
}

// RandomGuess picks one service uniformly at random (seeded, deterministic).
type RandomGuess struct {
	// Seed drives the guesses.
	Seed int64

	services []string
	rng      *rand.Rand
}

var _ Technique = (*RandomGuess)(nil)

// Name implements Technique.
func (r *RandomGuess) Name() string { return "random" }

// Train implements Technique.
func (r *RandomGuess) Train(_ context.Context, baseline *metrics.Snapshot, _ map[string]*metrics.Snapshot) error {
	if baseline == nil || len(baseline.Services) == 0 {
		return fmt.Errorf("baselines: random: empty baseline")
	}
	r.services = append([]string(nil), baseline.Services...)
	r.rng = rand.New(rand.NewSource(r.Seed))
	return nil
}

// Localize implements Technique.
func (r *RandomGuess) Localize(_ context.Context, _ *metrics.Snapshot) ([]string, error) {
	if r.rng == nil {
		return nil, fmt.Errorf("baselines: random: Localize before Train")
	}
	return []string{r.services[r.rng.Intn(len(r.services))]}, nil
}
