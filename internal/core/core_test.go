package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"causalfl/internal/metrics"
	"causalfl/internal/stats"
)

// fixture builds synthetic datasets over services {a,b,c,d} and metrics
// {m1,m2} where the ground-truth causal worlds are:
//
//	m1: fault in a -> shifts {a, b};   fault in c -> shifts {c}
//	m2: fault in a -> shifts {a, d};   fault in c -> shifts {c, b}
//
// Series are Gaussian noise around per-service means; "shifted" series get a
// large mean offset so the KS decision is unambiguous.
type fixture struct {
	services []string
	metrics  []string
	rng      *rand.Rand
}

func newFixture() *fixture {
	return &fixture{
		services: []string{"a", "b", "c", "d"},
		metrics:  []string{"m1", "m2"},
		rng:      rand.New(rand.NewSource(7)),
	}
}

// snapshot produces a dataset where shifted[metric][service] marks series
// drawn from the shifted distribution.
func (f *fixture) snapshot(shifted map[string]map[string]bool) *metrics.Snapshot {
	const n = 20
	snap := metrics.NewSnapshot(f.metrics, f.services)
	for _, m := range f.metrics {
		for _, svc := range f.services {
			series := make([]float64, n)
			offset := 0.0
			if shifted != nil && shifted[m][svc] {
				offset = 8.0
			}
			for i := range series {
				series[i] = 10 + offset + f.rng.NormFloat64()
			}
			snap.Data[m][svc] = series
		}
	}
	return snap
}

func (f *fixture) groundTruth() map[string]map[string]map[string]bool {
	return map[string]map[string]map[string]bool{
		"a": {
			"m1": {"a": true, "b": true},
			"m2": {"a": true, "d": true},
		},
		"c": {
			"m1": {"c": true},
			"m2": {"c": true, "b": true},
		},
	}
}

func (f *fixture) trainModel(t *testing.T) *Model {
	t.Helper()
	baseline := f.snapshot(nil)
	interventions := make(map[string]*metrics.Snapshot)
	for target, worlds := range f.groundTruth() {
		interventions[target] = f.snapshot(worlds)
	}
	l, err := NewLearner()
	if err != nil {
		t.Fatal(err)
	}
	model, err := l.Learn(context.Background(), baseline, interventions)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func setEqual(got []string, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	m := make(map[string]bool, len(got))
	for _, s := range got {
		m[s] = true
	}
	for _, s := range want {
		if !m[s] {
			return false
		}
	}
	return true
}

func TestLearnerRecoversPerMetricCausalSets(t *testing.T) {
	f := newFixture()
	model := f.trainModel(t)
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		metric, target string
		want           []string
	}{
		{"m1", "a", []string{"a", "b"}},
		{"m2", "a", []string{"a", "d"}},
		{"m1", "c", []string{"c"}},
		{"m2", "c", []string{"b", "c"}},
	}
	for _, tt := range tests {
		got, err := model.CausalSet(tt.metric, tt.target)
		if err != nil {
			t.Fatal(err)
		}
		if !setEqual(got, tt.want...) {
			t.Errorf("C(%s,%s) = %v, want %v", tt.target, tt.metric, got, tt.want)
		}
	}
	// The per-metric worlds for the same intervention genuinely differ —
	// the central observation of the paper (§VI-B).
	m1, _ := model.CausalSet("m1", "a")
	m2, _ := model.CausalSet("m2", "a")
	if setEqual(m1, m2...) {
		t.Error("per-metric causal worlds collapsed; fixture should make them differ")
	}
}

func TestLearnerValidation(t *testing.T) {
	f := newFixture()
	baseline := f.snapshot(nil)
	l, err := NewLearner()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Learn(context.Background(), nil, map[string]*metrics.Snapshot{"a": baseline}); err == nil {
		t.Error("accepted nil baseline")
	}
	if _, err := l.Learn(context.Background(), baseline, nil); err == nil {
		t.Error("accepted empty interventions")
	}
	if _, err := l.Learn(context.Background(), baseline, map[string]*metrics.Snapshot{"ghost": f.snapshot(nil)}); err == nil {
		t.Error("accepted intervention on service outside the universe")
	}
}

// TestLearnRefusesRepeatedName: a baseline that declares a name twice would
// learn into a model that ReadModel, Localize and NewCausalIndex refuse, so
// Learn refuses it up front, in Model.Validate's words.
func TestLearnRefusesRepeatedName(t *testing.T) {
	l, err := NewLearner()
	if err != nil {
		t.Fatal(err)
	}
	series := []float64{1, 2, 3, 4, 5, 6}
	for _, tc := range []struct {
		metrics, services []string
		want              string
	}{
		{[]string{"m", "m"}, []string{"a", "b"}, `core: model lists metric "m" twice`},
		{[]string{"m"}, []string{"a", "b", "a"}, `core: model lists service "a" twice`},
	} {
		snap := func() *metrics.Snapshot {
			s := metrics.NewSnapshot(tc.metrics, tc.services)
			for _, m := range tc.metrics {
				for _, svc := range tc.services {
					s.Data[m][svc] = series
				}
			}
			return s
		}
		_, err := l.Learn(context.Background(), snap(), map[string]*metrics.Snapshot{"a": snap()})
		if err == nil || err.Error() != tc.want {
			t.Errorf("Learn over metrics %v, services %v = %v, want %q", tc.metrics, tc.services, err, tc.want)
		}
	}
}

func TestNewLearnerOptions(t *testing.T) {
	if _, err := NewLearner(WithAlpha(0)); err == nil {
		t.Error("accepted alpha 0")
	}
	if _, err := NewLearner(WithAlpha(1)); err == nil {
		t.Error("accepted alpha 1")
	}
	if _, err := NewLearner(WithTest(nil)); err == nil {
		t.Error("accepted nil test")
	}
	l, err := NewLearner(WithAlpha(0.01), WithTest(stats.PermutationTest{Rounds: 50, Seed: 1}))
	if err != nil || l.alpha != 0.01 {
		t.Errorf("options not applied: %+v err=%v", l, err)
	}
}

func TestLocalizerFindsInjectedFault(t *testing.T) {
	f := newFixture()
	model := f.trainModel(t)
	lo, err := NewLocalizer()
	if err != nil {
		t.Fatal(err)
	}
	for target, worlds := range f.groundTruth() {
		production := f.snapshot(worlds)
		loc, err := lo.Localize(context.Background(), model, production)
		if err != nil {
			t.Fatal(err)
		}
		if !setEqual(loc.Candidates, target) {
			t.Errorf("fault in %s localized to %v (votes %v)", target, loc.Candidates, loc.Votes)
		}
		if len(loc.Anomalies) == 0 {
			t.Error("localization carries no anomaly explanation")
		}
	}
}

func TestLocalizerNoAnomaliesReturnsAllTargets(t *testing.T) {
	f := newFixture()
	model := f.trainModel(t)
	lo, err := NewLocalizer()
	if err != nil {
		t.Fatal(err)
	}
	// Production data identical to the baseline: KS distance is zero
	// everywhere, so no metric votes. (A *fresh* healthy sample may still
	// trip ~5% of the per-service tests at alpha=0.05 — that inherent
	// false-positive rate is exercised by the campaign tests instead.)
	loc, err := lo.Localize(context.Background(), model, model.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !setEqual(loc.Candidates, model.Targets...) {
		t.Errorf("healthy data localized to %v, want full target set %v", loc.Candidates, model.Targets)
	}
	if len(loc.Votes) != 0 {
		t.Errorf("healthy data produced votes %v", loc.Votes)
	}
}

func TestLocalizerTieSplitsVotes(t *testing.T) {
	// Build a model with two targets whose causal sets are identical for
	// the single metric; production anomalies then tie and the vote
	// splits, yielding both candidates.
	baseline := metrics.NewSnapshot([]string{"m"}, []string{"x", "y"})
	rng := rand.New(rand.NewSource(3))
	mk := func(offset float64) []float64 {
		s := make([]float64, 20)
		for i := range s {
			s[i] = 5 + offset + rng.NormFloat64()
		}
		return s
	}
	baseline.Data["m"]["x"] = mk(0)
	baseline.Data["m"]["y"] = mk(0)

	model := &Model{
		Services: []string{"x", "y"},
		Metrics:  []string{"m"},
		Targets:  []string{"x", "y"},
		CausalSets: map[string]map[string][]string{
			"m": {
				"x": {"x", "y"},
				"y": {"x", "y"},
			},
		},
		Baseline: baseline,
		Alpha:    0.05,
	}
	production := metrics.NewSnapshot([]string{"m"}, []string{"x", "y"})
	production.Data["m"]["x"] = mk(8)
	production.Data["m"]["y"] = mk(8)

	lo, err := NewLocalizer()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := lo.Localize(context.Background(), model, production)
	if err != nil {
		t.Fatal(err)
	}
	if !setEqual(loc.Candidates, "x", "y") {
		t.Fatalf("indistinguishable worlds localized to %v, want {x,y}", loc.Candidates)
	}
	if loc.Votes["x"] != 0.5 || loc.Votes["y"] != 0.5 {
		t.Fatalf("tied vote mass = %v, want 0.5/0.5", loc.Votes)
	}
}

func TestLocalizerJaccardPenalizesBroadSets(t *testing.T) {
	// Target "wide" claims everything is causally affected; "narrow"
	// claims exactly the observed anomalies. Intersection voting ties
	// narrow with wide only if |A∩C| differs; Jaccard prefers narrow.
	services := []string{"p", "q", "r"}
	baseline := metrics.NewSnapshot([]string{"m"}, services)
	rng := rand.New(rand.NewSource(4))
	mk := func(offset float64) []float64 {
		s := make([]float64, 20)
		for i := range s {
			s[i] = offset + rng.NormFloat64()
		}
		return s
	}
	for _, svc := range services {
		baseline.Data["m"][svc] = mk(0)
	}
	model := &Model{
		Services: services,
		Metrics:  []string{"m"},
		Targets:  []string{"p", "q"},
		CausalSets: map[string]map[string][]string{
			"m": {
				"p": {"p", "q", "r"}, // wide
				"q": {"p", "q"},      // narrow, matches anomalies exactly
			},
		},
		Baseline: baseline,
		Alpha:    0.05,
	}
	production := metrics.NewSnapshot([]string{"m"}, services)
	production.Data["m"]["p"] = mk(8)
	production.Data["m"]["q"] = mk(8)
	production.Data["m"]["r"] = mk(0)

	inter, err := NewLocalizer()
	if err != nil {
		t.Fatal(err)
	}
	locInter, err := inter.Localize(context.Background(), model, production)
	if err != nil {
		t.Fatal(err)
	}
	// Intersection: both score 2, and the parsimony tie-break prefers the
	// narrower explanation q.
	if !setEqual(locInter.Candidates, "q") {
		t.Fatalf("intersection vote candidates = %v, want {q} via parsimony tie-break", locInter.Candidates)
	}

	jac, err := NewLocalizer(WithVoteRule(JaccardVote))
	if err != nil {
		t.Fatal(err)
	}
	locJac, err := jac.Localize(context.Background(), model, production)
	if err != nil {
		t.Fatal(err)
	}
	if !setEqual(locJac.Candidates, "q") {
		t.Fatalf("jaccard vote candidates = %v, want {q}", locJac.Candidates)
	}
}

func TestLocalizerValidation(t *testing.T) {
	f := newFixture()
	model := f.trainModel(t)
	lo, err := NewLocalizer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lo.Localize(context.Background(), nil, f.snapshot(nil)); err == nil {
		t.Error("accepted nil model")
	}
	if _, err := lo.Localize(context.Background(), model, nil); err == nil {
		t.Error("accepted nil production")
	}
	if _, err := NewLocalizer(WithVoteRule(VoteRule(99))); err == nil {
		t.Error("accepted unknown vote rule")
	}
	if _, err := NewLocalizer(WithAlpha(2)); err == nil {
		t.Error("accepted alpha 2")
	}
	if _, err := NewLocalizer(WithTest(nil)); err == nil {
		t.Error("accepted nil test")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	f := newFixture()
	model := f.trainModel(t)
	var buf bytes.Buffer
	if err := model.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Targets) != len(model.Targets) || back.Alpha != model.Alpha {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	got, err := back.CausalSet("m1", "a")
	if err != nil {
		t.Fatal(err)
	}
	if !setEqual(got, "a", "b") {
		t.Fatalf("round-tripped C(a,m1) = %v", got)
	}
	// Localization must still work with a reloaded model.
	lo, err := NewLocalizer()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := lo.Localize(context.Background(), back, f.snapshot(f.groundTruth()["a"]))
	if err != nil {
		t.Fatal(err)
	}
	if !setEqual(loc.Candidates, "a") {
		t.Fatalf("reloaded model localized to %v", loc.Candidates)
	}
}

func TestReadModelRejectsCorrupt(t *testing.T) {
	if _, err := ReadModel(bytes.NewBufferString("{")); err == nil {
		t.Error("accepted truncated JSON")
	}
	if _, err := ReadModel(bytes.NewBufferString(`{"services":[]}`)); err == nil {
		t.Error("accepted structurally invalid model")
	}
}

func TestModelValidateCatchesMissingSelf(t *testing.T) {
	f := newFixture()
	model := f.trainModel(t)
	model.CausalSets["m1"]["a"] = []string{"b"} // drop the self-inclusion
	if err := model.Validate(); err == nil {
		t.Error("Validate accepted causal set missing the injected service")
	}
}

// TestModelValidateCatchesDuplicateMember pins that a causal set listing a
// service twice is refused at load: the vote's union arithmetic counts
// members, so Localize could not serve such a model.
func TestModelValidateCatchesDuplicateMember(t *testing.T) {
	f := newFixture()
	model := f.trainModel(t)
	model.CausalSets["m1"]["a"] = []string{"a", "b", "b"}
	if err := model.Validate(); err == nil || !strings.Contains(err.Error(), `lists service "b" twice`) {
		t.Fatalf("Validate on a duplicated member: %v", err)
	}
	var buf bytes.Buffer
	if err := model.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModel(&buf); err == nil {
		t.Error("ReadModel accepted a duplicated causal-set member")
	}
}

// TestDetectDropsNonFinite pins the one non-finite rule: a NaN or ±Inf
// production value is dropped before the test in strict mode as in tolerant
// mode, and a strict pair left with no finite value fails.
func TestDetectDropsNonFinite(t *testing.T) {
	f := newFixture()
	baseline := f.snapshot(nil)
	noisy := f.snapshot(map[string]map[string]bool{"m1": {"b": true}})
	finite := metrics.NewSnapshot(f.metrics, f.services)
	for i, svc := range f.services {
		s := noisy.Data["m1"][svc]
		finite.Data["m1"][svc] = append([]float64(nil), s[1:]...)
		s[0] = []float64{math.Inf(1), math.NaN(), math.Inf(-1)}[i%3]
	}
	for _, cfg := range []DetectConfig{{Alpha: 0.05}, {FDR: 0.10}, {Alpha: 0.05, Tolerant: true}} {
		want, err := Detect(context.Background(), cfg, baseline, finite, "m1")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Detect(context.Background(), cfg, baseline, noisy, "m1")
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: with non-finite values %+v, without %+v", cfg, got, want)
		}
	}
	noisy.Data["m1"]["c"] = []float64{math.NaN(), math.Inf(1)}
	_, err := Detect(context.Background(), DetectConfig{Alpha: 0.05}, baseline, noisy, "m1")
	if want := "core: anomaly test m1 on c: no finite production value"; err == nil || err.Error() != want {
		t.Fatalf("strict all-non-finite pair: %v, want %q", err, want)
	}
}

func TestDetectDirectly(t *testing.T) {
	f := newFixture()
	baseline := f.snapshot(nil)
	production := f.snapshot(map[string]map[string]bool{
		"m1": {"b": true, "d": true},
	})
	cfg := DetectConfig{Test: stats.KSTest{}, Alpha: 0.05}
	det, err := Detect(context.Background(), cfg, baseline, production, "m1")
	if err != nil {
		t.Fatal(err)
	}
	if !setEqual(det.Anomalous, "b", "d") {
		t.Fatalf("anomalies = %v, want {b,d}", det.Anomalous)
	}
	if _, err := Detect(context.Background(), cfg, baseline, production, "ghost"); err == nil {
		t.Error("accepted unknown metric")
	}
}
