package repair

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// FaultSpec describes one injected fault of the replayed scenario.
type FaultSpec struct {
	Target string `json:"target"`
	Fault  string `json:"fault"`
}

// Candidate is one singleton intervention's counterfactual evaluation.
type Candidate struct {
	Intervention Intervention `json:"intervention"`
	Metrics      Metrics      `json:"metrics"`
	Score        float64      `json:"score"`
	MeetsSLO     bool         `json:"meets_slo"`
	// Delta is the change against the unrepaired control window.
	Delta Delta `json:"delta"`
}

// FixSet is one evaluated intervention set.
type FixSet struct {
	Interventions []Intervention `json:"interventions"`
	Metrics       Metrics        `json:"metrics"`
	Score         float64        `json:"score"`
	MeetsSLO      bool           `json:"meets_slo"`
}

// Report is the full outcome of a fix-set search. Sets is ranked; Sets[0],
// when present, is the top-ranked minimal fix set.
type Report struct {
	App             string        `json:"app"`
	Seed            int64         `json:"seed"`
	Warmup          time.Duration `json:"warmup"`
	Window          time.Duration `json:"window"`
	Faults          []FaultSpec   `json:"faults"`
	Healthy         Metrics       `json:"healthy"`
	Control         Metrics       `json:"control"`
	SLO             SLO           `json:"slo"`
	ControlMeetsSLO bool          `json:"control_meets_slo"`
	Candidates      []Candidate   `json:"candidates,omitempty"`
	Sets            []FixSet      `json:"sets,omitempty"`
	// Replays counts the counterfactual replays the search executed.
	Replays int `json:"replays"`
}

// Chosen returns the top-ranked fix set, or nil when the search found
// nothing to repair (control met the SLO) or evaluated no sets.
func (r *Report) Chosen() *FixSet {
	if len(r.Sets) == 0 {
		return nil
	}
	return &r.Sets[0]
}

// String renders the report for terminals.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Counterfactual repair: %s (seed %d, warmup %v, window %v)\n", r.App, r.Seed, r.Warmup, r.Window)
	if len(r.Faults) == 0 {
		fmt.Fprintf(&b, "faults: none declared\n")
	} else {
		parts := make([]string, len(r.Faults))
		for i, f := range r.Faults {
			parts[i] = f.Target + ": " + f.Fault
		}
		fmt.Fprintf(&b, "faults: %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "\n%-9s %-7s %-9s %-10s %s\n", "window", "avail", "latency", "throughput", "slo")
	fmt.Fprintf(&b, "%-9s %-7.3f %-9s %-10.2f %s\n", "healthy",
		r.Healthy.Availability, fmtLatency(r.Healthy.MeanLatency), r.Healthy.Throughput, "reference")
	fmt.Fprintf(&b, "%-9s %-7.3f %-9s %-10.2f %s\n", "faulty",
		r.Control.Availability, fmtLatency(r.Control.MeanLatency), r.Control.Throughput, meets(r.ControlMeetsSLO))
	fmt.Fprintf(&b, "slo: avail ≥ %.3f, latency ≤ %s, throughput ≥ %.2f/s\n",
		r.SLO.MinAvailability, fmtLatency(r.SLO.MaxMeanLatency), r.SLO.MinThroughput)

	if r.ControlMeetsSLO {
		fmt.Fprintf(&b, "\nThe faulty window still meets the SLO — no repair needed (%d replays).\n", r.Replays)
		return b.String()
	}

	if chosen := r.Chosen(); chosen != nil {
		fmt.Fprintf(&b, "\nMinimal fix set (%s):\n", meets(chosen.MeetsSLO))
		for _, iv := range chosen.Interventions {
			fmt.Fprintf(&b, "  - %s\n", iv)
		}
		fmt.Fprintf(&b, "  replayed: avail %.3f, latency %s, throughput %.2f/s, score %.4f\n",
			chosen.Metrics.Availability, fmtLatency(chosen.Metrics.MeanLatency),
			chosen.Metrics.Throughput, chosen.Score)
	}

	if len(r.Candidates) > 0 {
		fmt.Fprintf(&b, "\n%-24s %-7s %-5s %-8s %-9s %s\n", "intervention", "score", "slo", "Δavail", "Δlatency", "Δthroughput")
		for _, c := range r.Candidates {
			fmt.Fprintf(&b, "%-24s %-7.4f %-5s %+-8.3f %-9s %+.2f/s\n",
				c.Intervention.String(), c.Score, meets(c.MeetsSLO),
				c.Delta.Availability, fmtSignedLatency(c.Delta.MeanLatency), c.Delta.Throughput)
		}
	}

	if len(r.Sets) > 1 {
		fmt.Fprintf(&b, "\nRanked fix sets:\n")
		for i, fs := range r.Sets {
			names := make([]string, len(fs.Interventions))
			for j, iv := range fs.Interventions {
				names[j] = iv.String()
			}
			fmt.Fprintf(&b, "%3d. [%s] score %.4f (%s)\n", i+1, strings.Join(names, " + "), fs.Score, meets(fs.MeetsSLO))
		}
	}
	fmt.Fprintf(&b, "\n%d counterfactual replays\n", r.Replays)
	return b.String()
}

// meets renders an SLO verdict.
func meets(ok bool) string {
	if ok {
		return "meets-slo"
	}
	return "violates"
}

// fmtLatency renders a duration rounded to 0.1ms for stable tables.
func fmtLatency(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// fmtSignedLatency renders a latency delta with an explicit sign.
func fmtSignedLatency(d time.Duration) string {
	return fmt.Sprintf("%+.1fms", float64(d)/float64(time.Millisecond))
}

// Envelope versioning of the JSON form.
const (
	// ReportKind tags the JSON envelope.
	ReportKind = "causalfl-repair-report"
	// ReportVersion is bumped on breaking schema changes; ReadReport
	// rejects versions it does not understand.
	ReportVersion = 1
)

// envelope is the on-disk JSON form.
type envelope struct {
	Kind    string  `json:"kind"`
	Version int     `json:"version"`
	Report  *Report `json:"report"`
}

// WriteJSON writes the report as a versioned, self-describing JSON envelope.
func (r *Report) WriteJSON(w io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope{Kind: ReportKind, Version: ReportVersion, Report: r})
}

// ReadReport parses and validates a JSON envelope produced by WriteJSON.
// Hostile input yields an error, never a panic.
func ReadReport(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var env envelope
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("repair: parse report: %w", err)
	}
	if env.Kind != ReportKind {
		return nil, fmt.Errorf("repair: not a repair report (kind %q)", env.Kind)
	}
	if env.Version != ReportVersion {
		return nil, fmt.Errorf("repair: unsupported report version %d (want %d)", env.Version, ReportVersion)
	}
	if env.Report == nil {
		return nil, fmt.Errorf("repair: envelope has no report")
	}
	// WriteJSON omits an empty list, so an empty list reads back as none:
	// a report then survives a write/read round trip unchanged.
	if len(env.Report.Candidates) == 0 {
		env.Report.Candidates = nil
	}
	if len(env.Report.Sets) == 0 {
		env.Report.Sets = nil
	}
	if err := env.Report.Validate(); err != nil {
		return nil, err
	}
	return env.Report, nil
}

// Validate checks the report's internal consistency — the guard that keeps
// hostile or truncated JSON from flowing further.
func (r *Report) Validate() error {
	if r.App == "" {
		return fmt.Errorf("repair: report has no app")
	}
	if r.Warmup < 0 || r.Window <= 0 {
		return fmt.Errorf("repair: report has bad durations warmup=%v window=%v", r.Warmup, r.Window)
	}
	if r.Replays < 0 {
		return fmt.Errorf("repair: negative replay count %d", r.Replays)
	}
	for _, f := range r.Faults {
		if f.Target == "" || f.Fault == "" {
			return fmt.Errorf("repair: report fault entry %+v incomplete", f)
		}
	}
	for _, m := range []Metrics{r.Healthy, r.Control} {
		if err := m.validate(); err != nil {
			return err
		}
	}
	if err := r.SLO.validate(); err != nil {
		return err
	}
	for _, c := range r.Candidates {
		if err := c.Intervention.Validate(); err != nil {
			return err
		}
		if err := c.Metrics.validate(); err != nil {
			return err
		}
		if !finite01ish(c.Score) {
			return fmt.Errorf("repair: candidate %s has bad score %v", c.Intervention.Key(), c.Score)
		}
	}
	for _, fs := range r.Sets {
		if len(fs.Interventions) == 0 {
			return fmt.Errorf("repair: report contains an empty fix set")
		}
		seen := make(map[string]bool, len(fs.Interventions))
		for _, iv := range fs.Interventions {
			if err := iv.Validate(); err != nil {
				return err
			}
			if key := iv.Key(); seen[key] {
				return fmt.Errorf("repair: fix set repeats intervention %s", key)
			} else {
				seen[key] = true
			}
		}
		if err := fs.Metrics.validate(); err != nil {
			return err
		}
		if !finite01ish(fs.Score) {
			return fmt.Errorf("repair: fix set %s has bad score %v", setKey(fs.Interventions), fs.Score)
		}
	}
	return nil
}

// validate checks one metrics block.
func (m Metrics) validate() error {
	if m.Succeeded+m.Failed > m.Issued {
		return fmt.Errorf("repair: metrics complete more requests than issued (%d+%d > %d)",
			m.Succeeded, m.Failed, m.Issued)
	}
	if m.Availability < 0 || m.Availability > 1 || math.IsNaN(m.Availability) {
		return fmt.Errorf("repair: availability %v outside [0,1]", m.Availability)
	}
	if m.MeanLatency < 0 {
		return fmt.Errorf("repair: negative mean latency %v", m.MeanLatency)
	}
	if m.Throughput < 0 || math.IsNaN(m.Throughput) || math.IsInf(m.Throughput, 0) {
		return fmt.Errorf("repair: bad throughput %v", m.Throughput)
	}
	return nil
}

// validate checks the SLO thresholds.
func (s SLO) validate() error {
	if math.IsNaN(s.MinAvailability) || s.MinAvailability > 1 {
		return fmt.Errorf("repair: bad SLO availability floor %v", s.MinAvailability)
	}
	if s.MaxMeanLatency < 0 {
		return fmt.Errorf("repair: negative SLO latency ceiling %v", s.MaxMeanLatency)
	}
	if math.IsNaN(s.MinThroughput) || math.IsInf(s.MinThroughput, 0) || s.MinThroughput < 0 {
		return fmt.Errorf("repair: bad SLO throughput floor %v", s.MinThroughput)
	}
	return nil
}

// finite01ish accepts scores in [0, 1] (the constructed range) with a guard
// against NaN/Inf smuggled in via JSON.
func finite01ish(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0 && x <= 1
}
