package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"causalfl/internal/metrics"
)

// randomModel builds a valid model over n services with random causal sets
// (each target's set contains itself plus a random subset of the services).
func randomModel(rng *rand.Rand, n int) *Model {
	services := make([]string, n)
	for i := range services {
		services[i] = fmt.Sprintf("svc-%03d", i)
	}
	names := []string{"cpu", "rps", "lat"}
	targets := append([]string(nil), services...)
	sets := make(map[string]map[string][]string, len(names))
	for _, m := range names {
		per := make(map[string][]string, len(targets))
		for _, t := range targets {
			members := map[string]bool{t: true}
			for k := rng.Intn(4); k > 0; k-- {
				members[services[rng.Intn(n)]] = true
			}
			set := make([]string, 0, len(members))
			for s := range members {
				set = append(set, s)
			}
			sort.Strings(set)
			per[t] = set
		}
		sets[m] = per
	}
	return &Model{
		Services:   services,
		Metrics:    names,
		Targets:    targets,
		CausalSets: sets,
		Baseline:   metrics.NewSnapshot(names, services),
		Alpha:      DefaultAlpha,
	}
}

// randomDetections builds one detection per model metric with a random
// anomaly subset, exercising dark metrics, clean metrics and partial
// coverage.
func randomDetections(rng *rand.Rand, model *Model) []*Detection {
	out := make([]*Detection, len(model.Metrics))
	for i := range out {
		switch rng.Intn(6) {
		case 0: // dark metric
			out[i] = &Detection{Anomalous: []string{}, Tested: 0}
		case 1: // clean metric
			out[i] = &Detection{Anomalous: []string{}, Tested: len(model.Services)}
		default:
			members := map[string]bool{}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				members[model.Services[rng.Intn(len(model.Services))]] = true
			}
			anom := make([]string, 0, len(members))
			for s := range members {
				anom = append(anom, s)
			}
			sort.Strings(anom)
			tested := len(anom) + rng.Intn(len(model.Services)-len(anom)+1)
			out[i] = &Detection{Anomalous: anom, Tested: tested}
		}
	}
	return out
}

// denseAggregate is the conformance oracle for the indexed vote: Algorithm
// 2's vote phase written directly over the dense target × service causal
// matrix, scoring every trained target of every voting metric.
func denseAggregate(lo *Localizer, model *Model, detections []*Detection) *Localization {
	out := &Localization{
		Votes:          map[string]float64{},
		Anomalies:      map[string][]string{},
		MetricWinners:  map[string][]string{},
		MetricCoverage: map[string]float64{},
	}
	testedAny := false
	for i, metric := range model.Metrics {
		anom, tested := detections[i].Anomalous, detections[i].Tested
		coverage := float64(tested) / float64(len(model.Services))
		out.MetricCoverage[metric] = coverage
		if tested == 0 {
			continue
		}
		testedAny = true
		out.Anomalies[metric] = anom
		if len(anom) == 0 {
			continue
		}
		anomSet := make(map[string]bool, len(anom))
		for _, s := range anom {
			anomSet[s] = true
		}
		best := -1.0
		var winners []string
		for _, target := range model.Targets {
			set := model.CausalSets[metric][target]
			score := float64(intersectionSize(set, anomSet))
			if lo.rule == JaccardVote {
				score /= float64(unionSize(set, anomSet))
			}
			switch {
			case score > best:
				best = score
				winners = []string{target}
			case score == best:
				winners = append(winners, target)
			}
		}
		if best <= 0 {
			continue
		}
		if lo.rule == IntersectionVote {
			winners = mostParsimonious(model, metric, winners)
		}
		out.MetricWinners[metric] = winners
		for _, w := range winners {
			out.Votes[w] += coverage / float64(len(winners))
		}
	}
	if !testedAny {
		out.Abstained = true
		return out
	}
	out.Candidates = argmaxVotes(out.Votes)
	if len(out.Candidates) == 0 {
		out.Candidates = append([]string(nil), model.Targets...)
		sort.Strings(out.Candidates)
	}
	return out
}

// mostParsimonious is the oracle's parsimony tie-break, written over causal
// set members rather than the index's sizes: it shrinks a tied winner list
// to the targets with the smallest causal set under the metric.
func mostParsimonious(model *Model, metric string, winners []string) []string {
	if len(winners) <= 1 {
		return winners
	}
	minSize := -1
	for _, w := range winners {
		size := len(model.CausalSets[metric][w])
		if minSize == -1 || size < minSize {
			minSize = size
		}
	}
	out := winners[:0]
	for _, w := range winners {
		if len(model.CausalSets[metric][w]) == minSize {
			out = append(out, w)
		}
	}
	return out
}

// unionSize counts |a ∪ b|.
func unionSize(a []string, b map[string]bool) int {
	seen := make(map[string]bool, len(a)+len(b))
	for _, s := range a {
		seen[s] = true
	}
	for s := range b {
		seen[s] = true
	}
	return len(seen)
}

// TestAggregateIndexedMatchesDense is the sparse path's conformance property:
// over random models, random anomaly evidence and every vote rule, the
// indexed aggregation is DeepEqual to the dense oracle.
func TestAggregateIndexedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		model := randomModel(rng, 3+rng.Intn(30))
		idx, err := NewCausalIndex(model)
		if err != nil {
			t.Fatalf("trial %d: NewCausalIndex: %v", trial, err)
		}
		for _, rule := range []VoteRule{IntersectionVote, JaccardVote, PureIntersectionVote} {
			lo, err := NewLocalizer(WithVoteRule(rule))
			if err != nil {
				t.Fatal(err)
			}
			detections := randomDetections(rng, model)
			want := denseAggregate(lo, model, detections)
			got, err := lo.AggregateIndexed(idx, detections)
			if err != nil {
				t.Fatalf("trial %d rule %v: %v", trial, rule, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d rule %v: sparse diverges from dense\n dense: %+v\nsparse: %+v", trial, rule, want, got)
			}
		}
	}
}

// TestAggregateIndexedWithReusedScratch: one scratch carried across models,
// rules and evidence gives what a fresh one gives, and an earlier result
// keeps its winners when the scratch is reused.
func TestAggregateIndexedWithReusedScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	var sc VoteScratch
	var prev, prevCopy *Localization
	for trial := 0; trial < 200; trial++ {
		model := randomModel(rng, 3+rng.Intn(30))
		idx, err := NewCausalIndex(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, rule := range []VoteRule{IntersectionVote, JaccardVote, PureIntersectionVote} {
			lo, err := NewLocalizer(WithVoteRule(rule))
			if err != nil {
				t.Fatal(err)
			}
			detections := randomDetections(rng, model)
			want, err := lo.AggregateIndexed(idx, detections)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lo.AggregateIndexedWith(&sc, idx, detections)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d rule %v: reused scratch diverges\n fresh: %+v\nreused: %+v", trial, rule, want, got)
			}
			if prev != nil && !reflect.DeepEqual(prev, prevCopy) {
				t.Fatalf("trial %d rule %v: reusing the scratch changed the previous result", trial, rule)
			}
			prev, prevCopy = got, want
		}
	}
}

func TestCausalIndexValidation(t *testing.T) {
	if _, err := NewCausalIndex(nil); err == nil {
		t.Fatal("nil model accepted")
	}
	rng := rand.New(rand.NewSource(1))
	model := randomModel(rng, 5)
	model.CausalSets["cpu"][model.Targets[0]] = []string{model.Targets[0], "svc-001", "svc-001"}
	if _, err := NewCausalIndex(model); err == nil {
		t.Fatal("duplicated causal-set member accepted")
	}

	model = randomModel(rng, 5)
	idx, err := NewCausalIndex(model)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Model() != model {
		t.Fatal("Model() does not return the indexed model")
	}
	wantPostings := 0
	for _, per := range model.CausalSets {
		for _, set := range per {
			wantPostings += len(set)
		}
	}
	if got := idx.Postings(); got != wantPostings {
		t.Fatalf("Postings = %d, want %d", got, wantPostings)
	}

	lo, err := NewLocalizer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lo.AggregateIndexed(nil, nil); err == nil {
		t.Fatal("nil index accepted")
	}
	if _, err := lo.AggregateIndexed(idx, nil); err == nil {
		t.Fatal("misaligned detections accepted")
	}
}
