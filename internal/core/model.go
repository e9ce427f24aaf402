// Package core implements the paper's contribution: fault-injection-driven
// interventional causal learning (Algorithm 1) and majority-voting fault
// localization (Algorithm 2).
//
// Algorithm 1 learns, for every metric M and every injectable service s, the
// causal set C(s, M): the services whose metric-M distribution shifts when a
// fault is injected into s. Deliberately, one causal world is kept *per
// metric* — the paper demonstrates (§III-A, §VI-B) that different metrics
// observe genuinely different propagation graphs (response-path error logs
// vs request-path omissions), so collapsing them into a single causal graph
// destroys identifiability.
//
// Algorithm 2 localizes: given production data, it computes the anomalous
// set A(M) per metric, lets each metric vote for the service whose learned
// causal set best matches A(M), and returns the majority vote.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"causalfl/internal/metrics"
	"causalfl/internal/stats"
)

// Model is the trained artifact of Algorithm 1: the causal sets plus the
// fault-free baseline dataset needed at localization time.
//
// Learn, JSON decoding and stream.NewSynth sort every baseline series
// ascending (SortBaseline): Algorithm 2 reads the baseline only through
// order-free tests, so the model keeps the order the stream detector
// searches. A hand-built model may carry unsorted series; the stream
// detector then sorts a private copy of each.
type Model struct {
	// Services is the service universe S.
	Services []string `json:"services"`
	// Metrics lists the metric names M the model was trained with.
	Metrics []string `json:"metrics"`
	// Targets lists the services that were fault-injected during training
	// (the candidate set of Algorithm 2's argmax).
	Targets []string `json:"targets"`
	// CausalSets maps metric -> injected service -> sorted causal set
	// C(s, M). Each set contains the injected service itself (Algorithm 1
	// line 9) plus every service whose distribution shifted.
	CausalSets map[string]map[string][]string `json:"causal_sets"`
	// Baseline is the fault-free training dataset D_0, retained because
	// Algorithm 2 compares production series against it.
	Baseline *metrics.Snapshot `json:"baseline"`
	// Alpha is the significance level used for the KS decisions.
	Alpha float64 `json:"alpha"`
}

// CausalSet returns C(s, M) as a sorted slice (copy).
func (m *Model) CausalSet(metric, target string) ([]string, error) {
	byTarget, ok := m.CausalSets[metric]
	if !ok {
		return nil, fmt.Errorf("core: model has no metric %q", metric)
	}
	set, ok := byTarget[target]
	if !ok {
		return nil, fmt.Errorf("core: model metric %q has no target %q", metric, target)
	}
	return append([]string(nil), set...), nil
}

// Validate is the one statement of what a well-formed model is; every
// constructor that accepts a model (ReadModel, Localizer.Localize,
// NewCausalIndex and, through it, the stream and serve layers) checks it here
// and nowhere else. A valid model
//
//   - declares at least one service, metric and trained target, and no name
//     twice in Services, Metrics or Targets;
//   - has an alpha in (0,1);
//   - holds, for every metric and every target, a causal set over known
//     services that lists no service twice and contains the target itself;
//   - carries a baseline that declares exactly the model's services and
//     metrics, each once, and passes Snapshot.ValidateTolerant.
func (m *Model) Validate() error {
	if len(m.Services) == 0 {
		return fmt.Errorf("core: model has no services")
	}
	if len(m.Metrics) == 0 {
		return fmt.Errorf("core: model has no metrics")
	}
	if len(m.Targets) == 0 {
		return fmt.Errorf("core: model has no trained targets")
	}
	if m.Alpha <= 0 || m.Alpha >= 1 {
		return fmt.Errorf("core: model alpha %v outside (0,1)", m.Alpha)
	}
	if m.Baseline == nil {
		return fmt.Errorf("core: model lacks baseline dataset")
	}
	known, err := nameSet("model", "service", m.Services)
	if err != nil {
		return err
	}
	metricSet, err := nameSet("model", "metric", m.Metrics)
	if err != nil {
		return err
	}
	if _, err := nameSet("model", "target", m.Targets); err != nil {
		return err
	}
	seen := make(map[string]bool)
	for _, metric := range m.Metrics {
		byTarget, ok := m.CausalSets[metric]
		if !ok {
			return fmt.Errorf("core: model missing causal sets for metric %q", metric)
		}
		for _, target := range m.Targets {
			set, ok := byTarget[target]
			if !ok {
				return fmt.Errorf("core: metric %q missing causal set for target %q", metric, target)
			}
			selfIncluded := false
			clear(seen)
			for _, svc := range set {
				if !known[svc] {
					return fmt.Errorf("core: causal set C(%s,%s) contains unknown service %q", target, metric, svc)
				}
				// The vote's Jaccard union arithmetic counts members, so
				// a repeated one would inflate |C|.
				if seen[svc] {
					return fmt.Errorf("core: causal set C(%s,%s) lists service %q twice", target, metric, svc)
				}
				seen[svc] = true
				if svc == target {
					selfIncluded = true
				}
			}
			if !selfIncluded {
				return fmt.Errorf("core: causal set C(%s,%s) does not contain the injected service", target, metric)
			}
		}
	}
	// Coverage divides by the model's services and the stream detector
	// indexes the baseline's pairs, so both universes must be the same.
	if err := sameNames("service", m.Services, known, m.Baseline.Services); err != nil {
		return err
	}
	if err := sameNames("metric", m.Metrics, metricSet, m.Baseline.Metrics); err != nil {
		return err
	}
	// Tolerant on purpose: a baseline learned from degraded telemetry may
	// legitimately lack (metric, service) pairs that repair dropped.
	return m.Baseline.ValidateTolerant()
}

// nameSet returns names as a membership set, refusing a name listed twice.
func nameSet(owner, kind string, names []string) (map[string]bool, error) {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		if set[n] {
			return nil, fmt.Errorf("core: %s lists %s %q twice", owner, kind, n)
		}
		set[n] = true
	}
	return set, nil
}

// sameNames checks that the baseline declares exactly the model's names of
// one kind (model, duplicate-free, with membership set inModel), each once.
func sameNames(kind string, model []string, inModel map[string]bool, baseline []string) error {
	declared, err := nameSet("baseline", kind, baseline)
	if err != nil {
		return err
	}
	for _, n := range baseline {
		if !inModel[n] {
			return fmt.Errorf("core: baseline declares %s %q the model lacks", kind, n)
		}
	}
	for _, n := range model {
		if !declared[n] {
			return fmt.Errorf("core: baseline lacks model %s %q", kind, n)
		}
	}
	return nil
}

// Describe renders the model's causal worlds as text: one block per metric,
// one line per injected service, matching the presentation of the paper's
// §VI-B example.
func (m *Model) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "causal model: %d services, %d metrics, %d trained targets, alpha=%.2f\n",
		len(m.Services), len(m.Metrics), len(m.Targets), m.Alpha)
	for _, metric := range m.Metrics {
		fmt.Fprintf(&b, "metric %s:\n", metric)
		for _, target := range m.Targets {
			fmt.Fprintf(&b, "  C(%s) = {%s}\n", target, strings.Join(m.CausalSets[metric][target], ", "))
		}
	}
	return b.String()
}

// WriteJSON serializes the model for persistence.
func (m *Model) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("core: encode model: %w", err)
	}
	return nil
}

// UnmarshalJSON decodes a model and sorts its baseline series, for
// ReadModel and for every json.Unmarshal of a model (serve's create-tenant
// bodies and snapshots): a file written with series in collection order
// decodes to the same model as one written sorted.
func (m *Model) UnmarshalJSON(data []byte) error {
	type plain Model // the fields without this method, so the decode below does not recurse
	if err := json.Unmarshal(data, (*plain)(m)); err != nil {
		return err
	}
	if m.Baseline != nil {
		SortBaseline(m.Baseline)
	}
	return nil
}

// SortBaseline sorts every series of a baseline snapshot ascending in place
// (stats.Sorter), the order a Model keeps.
func SortBaseline(b *metrics.Snapshot) {
	var sorter stats.Sorter
	for _, bySvc := range b.Data {
		for _, series := range bySvc {
			sorter.Sort(series)
		}
	}
}

// ReadModel deserializes a model written by WriteJSON and validates it.
func ReadModel(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// sortedSet turns a membership map into a sorted slice.
func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s, in := range set {
		if in {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// intersectionSize counts |a ∩ b| for sorted-or-not string slices.
func intersectionSize(a []string, b map[string]bool) int {
	n := 0
	for _, s := range a {
		if b[s] {
			n++
		}
	}
	return n
}
