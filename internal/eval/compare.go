package eval

import (
	"context"
	"fmt"
	"strings"

	"causalfl/internal/baselines"
)

// Grading is one trained technique's answers to a shared list of test
// cases and the aggregates over them.
type Grading struct {
	Technique string
	// Outcomes holds one scored answer per test case, in case order.
	Outcomes []Outcome
	// Accuracy is the fraction of answers containing the true target.
	Accuracy float64
	// MeanCandidates is the mean candidate-set size.
	MeanCandidates float64
	// MeanInformativeness averages per-answer informativeness.
	MeanInformativeness float64
}

// Grade asks a trained technique once per test case and scores each answer
// with the rule Evaluate applies to the paper's localizer, so every
// comparison grades the same answer, an empty one included, the same way.
func Grade(ctx context.Context, tech baselines.Technique, cases []TestCase, nServices int) (*Grading, error) {
	g := &Grading{Technique: tech.Name(), Outcomes: make([]Outcome, 0, len(cases))}
	for _, tc := range cases {
		candidates, err := tech.Localize(ctx, tc.Production)
		if err != nil {
			return nil, fmt.Errorf("localize %s on fault %s: %w", tech.Name(), tc.Target, err)
		}
		g.Outcomes = append(g.Outcomes, score(tc.Target, candidates, nServices))
	}
	g.Accuracy, g.MeanCandidates, g.MeanInformativeness = summarize(g.Outcomes)
	return g, nil
}

// CompareTechniques trains every technique on one shared training campaign
// and grades them on one shared test campaign, so differences reflect the
// methods rather than collection noise. Pass one config twice to train and
// test under the same conditions, or two when production conditions (load
// profile, fault type) deliberately differ from the controlled training
// environment. Both configs must share the application, and their metric
// set must contain the union of all metrics any technique projects.
func CompareTechniques(ctx context.Context, trainCfg, testCfg Config, techniques []baselines.Technique) ([]*Grading, error) {
	trainCfg, err := trainCfg.withDefaults()
	if err != nil {
		return nil, err
	}
	testCfg, err = testCfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(techniques) == 0 {
		return nil, fmt.Errorf("eval: compare: no techniques")
	}
	data, err := CollectTraining(ctx, trainCfg)
	if err != nil {
		return nil, err
	}
	cases, err := CollectTests(ctx, testCfg)
	if err != nil {
		return nil, err
	}

	gradings := make([]*Grading, 0, len(techniques))
	for _, tech := range techniques {
		if err := tech.Train(ctx, data.Baseline, data.Interventions); err != nil {
			return nil, fmt.Errorf("eval: compare: train %s: %w", tech.Name(), err)
		}
		g, err := Grade(ctx, tech, cases, len(data.Baseline.Services))
		if err != nil {
			return nil, fmt.Errorf("eval: compare: %w", err)
		}
		gradings = append(gradings, g)
	}
	return gradings, nil
}

// RenderScores prints technique gradings as a fixed-width table.
func RenderScores(title string, gradings []*Grading) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-28s %-9s %s\n", title, "technique", "accuracy", "informativeness")
	for _, g := range gradings {
		fmt.Fprintf(&b, "%-28s %-9.2f %.2f\n", g.Technique, g.Accuracy, g.MeanInformativeness)
	}
	return b.String()
}
