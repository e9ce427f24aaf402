package stream

import (
	"fmt"
	"time"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
)

// DefaultWindow is the default sliding-window length in window-values per
// (metric, service) pair.
const DefaultWindow = 8

// settings is the resolved configuration shared by Detector, Localizer and
// Pipeline. Each constructor reads the subset it understands; options that do
// not apply to a constructor (say, WithGeometry on a bare Detector) are
// simply ignored by it, so one option list can configure a whole Pipeline.
type settings struct {
	window     int
	hystK      int
	hystN      int
	alpha      float64
	fdr        float64
	minSamples int
	workers    int
	rule       core.VoteRule
	tolerant   bool
	length     time.Duration
	hop        time.Duration
	set        []metrics.Metric
}

// Option configures a Detector, Localizer or Pipeline. All three constructors
// take the same option set — the single front door for streaming
// configuration.
type Option func(*settings) error

// applyOptions resolves an option list over the defaults.
func applyOptions(opts []Option) (settings, error) {
	s := settings{window: DefaultWindow}
	for _, opt := range opts {
		if opt == nil {
			return s, fmt.Errorf("stream: nil option")
		}
		if err := opt(&s); err != nil {
			return s, err
		}
	}
	return s, nil
}

// WithWindow sets the number of most-recent window-values retained per
// (metric, service) series — the sliding production sample the two-sample
// tests see. The default is DefaultWindow.
func WithWindow(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("stream: window must be >= 1, got %d", n)
		}
		s.window = n
		return nil
	}
}

// WithHysteresis requires a service to be a top candidate in at least k of
// the last n voted hops before it is confirmed. The default is
// DefaultHystK of DefaultHystN. Detector-only constructions ignore it.
func WithHysteresis(k, n int) Option {
	return func(s *settings) error {
		if k < 1 || n < k {
			return fmt.Errorf("stream: hysteresis wants 1 <= K <= N, got K=%d N=%d", k, n)
		}
		s.hystK, s.hystN = k, n
		return nil
	}
}

// WithAlpha sets the per-test significance threshold. Unset, the Localizer
// falls back to the model's training alpha and the Detector to
// core.DefaultAlpha, exactly as the batch path does. Ignored when FDR
// control is on.
func WithAlpha(alpha float64) Option {
	return func(s *settings) error {
		if alpha <= 0 || alpha >= 1 {
			return fmt.Errorf("stream: alpha must be in (0,1), got %v", alpha)
		}
		s.alpha = alpha
		return nil
	}
}

// WithFDR switches the per-metric family decision to Benjamini-Hochberg
// control at level q.
func WithFDR(q float64) Option {
	return func(s *settings) error {
		if q <= 0 || q >= 1 {
			return fmt.Errorf("core: FDR level must be in (0,1), got %v", q)
		}
		s.fdr = q
		return nil
	}
}

// WithMinSamples sets the tolerant-mode minimum finite series length per
// side; the default is core.DefaultMinSamples.
func WithMinSamples(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("stream: min samples must be >= 1, got %d", n)
		}
		s.minSamples = n
		return nil
	}
}

// WithWorkers bounds the per-hop fan-out: the detector's flush splits the
// pairs the last hops touched into min(workers, touched) contiguous parts
// and recomputes them across the pool. Zero or one is serial. Results are
// byte-identical at every worker count.
func WithWorkers(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("stream: worker count must be >= 0, got %d", n)
		}
		s.workers = n
		return nil
	}
}

// WithVoteRule selects the vote rule; the default is core.IntersectionVote.
// Detector-only constructions ignore it.
func WithVoteRule(rule core.VoteRule) Option {
	return func(s *settings) error {
		s.rule = rule
		return nil
	}
}

// WithTolerant selects degraded-telemetry semantics for a bare Detector:
// pairs missing on either side are skipped instead of failing the call. The
// Detector default is strict; the Localizer and Pipeline always detect
// tolerantly (the batch localizer does too) and ignore this option.
func WithTolerant(tolerant bool) Option {
	return func(s *settings) error {
		s.tolerant = tolerant
		return nil
	}
}

// WithMetricSet sets the metric set a Pipeline evaluates per window. Its
// names must match the model's metric names exactly (the model was trained
// on these extractors). Required for NewPipeline; ignored elsewhere.
func WithMetricSet(set []metrics.Metric) Option {
	return func(s *settings) error {
		if len(set) == 0 {
			return fmt.Errorf("stream: empty metric set")
		}
		s.set = set
		return nil
	}
}

// WithGeometry sets the telemetry window geometry (window length and hop
// interval) a Pipeline aggregates on. Zero values select the telemetry
// defaults. Ignored outside NewPipeline.
func WithGeometry(length, hop time.Duration) Option {
	return func(s *settings) error {
		if length < 0 || hop < 0 {
			return fmt.Errorf("stream: window geometry must be >= 0, got length=%v hop=%v", length, hop)
		}
		s.length, s.hop = length, hop
		return nil
	}
}
