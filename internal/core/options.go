package core

import "fmt"

// settings is the shared configuration of the Learner and the Localizer.
// Both algorithms run the same statistical machinery — a two-sample test per
// (metric, service) pair, a per-family rejection decision, a minimum-sample
// guard — so they are configured through one option vocabulary; vote rules
// only affect localization and are ignored by the learner.
type settings struct {
	alpha      float64
	rawKS      bool
	fdrQ       float64
	minSamples int
	rule       VoteRule
	workers    int
}

// Option configures a Learner or a Localizer. Every option is accepted by
// both NewLearner and NewLocalizer; options that only apply to one algorithm
// (WithVoteRule) are validated but ignored by the other.
type Option func(*settings) error

// WithAlpha sets the significance level of the distribution-shift decision.
// The learner defaults to DefaultAlpha; the localizer defaults to the trained
// model's alpha.
func WithAlpha(alpha float64) Option {
	return func(s *settings) error {
		if alpha <= 0 || alpha >= 1 {
			return fmt.Errorf("core: alpha must be in (0,1), got %v", alpha)
		}
		s.alpha = alpha
		return nil
	}
}

// WithRawKS drops the practical-equivalence guard: every pair is decided by
// the bare KS test of the paper's Algorithms 1 and 2 instead of the default
// stats.GuardedTest.
func WithRawKS() Option {
	return func(s *settings) error {
		s.rawKS = true
		return nil
	}
}

// WithFDR switches the per-metric anomaly decision from per-test alpha
// thresholds to Benjamini-Hochberg false-discovery-rate control at level q.
// Algorithm 1 tests every other service per metric per intervention — a
// multiple-testing family whose false-anomaly count grows with application
// size under fixed alpha; FDR control keeps it proportional to the
// discoveries actually made.
func WithFDR(q float64) Option {
	return func(s *settings) error {
		if q <= 0 || q >= 1 {
			return fmt.Errorf("core: FDR level must be in (0,1), got %v", q)
		}
		s.fdrQ = q
		return nil
	}
}

// WithMinSamples overrides the minimum series length required to run a
// two-sample comparison on a (metric, service) pair (default
// DefaultMinSamples). Pairs with fewer finite points on either side are
// skipped, not tested.
func WithMinSamples(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("core: min samples must be >= 1, got %d", n)
		}
		s.minSamples = n
		return nil
	}
}

// WithVoteRule selects the localizer's per-metric scoring rule. The learner
// accepts but ignores it.
func WithVoteRule(rule VoteRule) Option {
	return func(s *settings) error {
		if rule != IntersectionVote && rule != JaccardVote && rule != PureIntersectionVote {
			return fmt.Errorf("core: unknown vote rule %d", rule)
		}
		s.rule = rule
		return nil
	}
}

// WithWorkers bounds the worker pool that fans out the per-target KS matrix
// (learning) and the per-metric anomaly detection (localization). Zero — the
// default — selects GOMAXPROCS at the point of use. Output is byte-identical
// at every worker count; only wall-clock changes.
func WithWorkers(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("core: worker count must be >= 0, got %d", n)
		}
		s.workers = n
		return nil
	}
}

// applyOptions folds opts into a settings value seeded with defaults.
func applyOptions(defaults settings, opts []Option) (settings, error) {
	s := defaults
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return s, err
		}
	}
	return s, nil
}
