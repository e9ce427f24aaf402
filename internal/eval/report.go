package eval

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"causalfl/internal/core"
)

// Outcome records one scored fault-injection test.
type Outcome struct {
	// Target is the service that actually carried the fault.
	Target string
	// Candidates is the localizer's estimated fault-location set.
	Candidates []string
	// Correct reports whether Target ∈ Candidates (the paper's accuracy
	// criterion: the output is a set of candidate root causes).
	Correct bool
	// Informativeness is (n-x)/(n-1) with n services and x candidates
	// (§VI-A): 1.0 pins a single location, 0 excludes nothing. An empty
	// answer, an abstention included, scores 0: naming nobody excludes
	// nobody.
	Informativeness float64
	// Abstained marks a localization that declined to answer because the
	// telemetry was too degraded to test anything.
	Abstained bool
	// Coverage is the localization's mean per-metric coverage (1 on clean
	// data).
	Coverage float64
	// Votes is the localizer's vote mass per candidate target.
	Votes map[string]float64
}

// score grades one answer against the known injected target. It is the one
// grading rule: Evaluate and Grade both score through it.
func score(target string, candidates []string, nServices int) Outcome {
	return Outcome{
		Target:          target,
		Candidates:      append([]string(nil), candidates...),
		Correct:         slices.Contains(candidates, target),
		Informativeness: Informativeness(nServices, len(candidates)),
		Coverage:        1,
	}
}

// newOutcome scores one localization against the known injected target.
func newOutcome(target string, loc *core.Localization, nServices int) Outcome {
	o := score(target, loc.Candidates, nServices)
	o.Abstained = loc.Abstained
	o.Votes = loc.Votes
	if n := len(loc.MetricCoverage); n > 0 {
		sum := 0.0
		for _, c := range loc.MetricCoverage {
			sum += c
		}
		o.Coverage = sum / float64(n)
	}
	return o
}

// summarize averages outcomes: the containment rate, the mean candidate-set
// size and the mean informativeness (all zero when there are none).
func summarize(outcomes []Outcome) (accuracy, meanCandidates, meanInformativeness float64) {
	if len(outcomes) == 0 {
		return 0, 0, 0
	}
	correct := 0
	var cands, info float64
	for _, o := range outcomes {
		if o.Correct {
			correct++
		}
		cands += float64(len(o.Candidates))
		info += o.Informativeness
	}
	n := float64(len(outcomes))
	return float64(correct) / n, cands / n, info / n
}

// Informativeness computes (n-x)/(n-1) (paper §VI-A), clamped at 0. An
// empty answer (x = 0) scores 0: naming nobody excludes nobody. Otherwise
// n <= 1 yields 1 by convention (there is nothing to exclude).
func Informativeness(n, x int) float64 {
	if x <= 0 {
		return 0
	}
	if n <= 1 {
		return 1
	}
	return max(float64(n-x)/float64(n-1), 0)
}

// Report aggregates a campaign's outcomes.
type Report struct {
	// App names the benchmark.
	App string
	// Multiplier is the test load scale.
	Multiplier float64
	// ServiceCount is n for the informativeness measure.
	ServiceCount int
	// MetricNames lists the metric set evaluated.
	MetricNames []string
	// Outcomes holds one entry per injected fault test.
	Outcomes []Outcome
	// Accuracy is the fraction of outcomes with the true target in the
	// candidate set.
	Accuracy float64
	// MeanInformativeness averages per-outcome informativeness.
	MeanInformativeness float64
}

// finalize computes the aggregate measures.
func (r *Report) finalize() {
	r.Accuracy, _, r.MeanInformativeness = summarize(r.Outcomes)
}

// String renders the report as a fixed-width table with one row per fault.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s @ %.0fx load (%d services, metrics: %s)\n",
		r.App, r.Multiplier, r.ServiceCount, strings.Join(r.MetricNames, ","))
	fmt.Fprintf(&b, "%-10s %-8s %-6s %s\n", "fault", "correct", "info", "candidates")
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "%-10s %-8v %-6.2f %s\n",
			o.Target, o.Correct, o.Informativeness, strings.Join(o.Candidates, ","))
	}
	fmt.Fprintf(&b, "accuracy=%.2f informativeness=%.2f\n", r.Accuracy, r.MeanInformativeness)
	return b.String()
}

// Misses lists the targets that were localized incorrectly, sorted.
func (r *Report) Misses() []string {
	var out []string
	for _, o := range r.Outcomes {
		if !o.Correct {
			out = append(out, o.Target)
		}
	}
	sort.Strings(out)
	return out
}
