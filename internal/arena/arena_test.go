package arena

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"causalfl/internal/baselines"
	"causalfl/internal/clock"
	"causalfl/internal/eval"
	"causalfl/internal/metrics"
	"causalfl/internal/sim"
)

var ctx = context.Background()

// quickOptions is the small deterministic grid most tests run: one app,
// both paper load multipliers, clean and degraded telemetry.
func quickOptions(workers int) Options {
	return Options{
		Apps:        []AppSpec{PaperApps()[0]},
		Multipliers: []float64{1, 4},
		Losses:      []float64{0, 0.2},
		Quick:       true,
		Workers:     workers,
	}
}

func TestRosterCoversRequiredFamilies(t *testing.T) {
	names := RosterNames()
	if len(names) < 7 {
		t.Fatalf("roster has %d techniques, need >= 7", len(names))
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate technique name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{
		"causalfl/intersection+parsimony", // the paper's method
		"errlog-only[23]",                 // §VI-B ablations
		"single-world",
		"causalrca-regression", // the three new graph-based competitors
		"pc-single-graph",
		"randomwalk-pagerank",
	} {
		if !seen[want] {
			t.Errorf("roster missing %q (have %v)", want, names)
		}
	}
}

func TestRunWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation campaign")
	}
	render := func(workers int) (string, []byte) {
		r, err := Run(ctx, quickOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return r.String(), buf.Bytes()
	}
	text1, json1 := render(1)
	text8, json8 := render(8)
	if text1 != text8 {
		t.Errorf("text report differs between workers 1 and 8:\n%s\n---\n%s", text1, text8)
	}
	if !bytes.Equal(json1, json8) {
		t.Errorf("JSON report differs between workers 1 and 8")
	}
}

func TestReportShapeAndValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation campaign")
	}
	o := Options{
		Apps:        []AppSpec{PaperApps()[0]},
		Multipliers: []float64{1},
		Losses:      []float64{0},
		Quick:       true,
		Workers:     1,
	}
	r, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.ClockMode != ClockVirtual {
		t.Errorf("default clock mode = %q, want %q", r.ClockMode, ClockVirtual)
	}
	cell := r.Apps[0].Cells[0]
	if len(cell.Rows) != len(RosterNames()) {
		t.Fatalf("cell has %d rows, want %d", len(cell.Rows), len(RosterNames()))
	}
	for i, row := range cell.Rows {
		if row.Technique != RosterNames()[i] {
			t.Errorf("row %d = %q, want %q", i, row.Technique, RosterNames()[i])
		}
		if len(row.Verdicts) != cell.Cases {
			t.Errorf("%s: %d verdicts for %d cases", row.Technique, len(row.Verdicts), cell.Cases)
		}
		if len(row.Sample) != 3 {
			t.Errorf("%s: %d sample points, want 3", row.Technique, len(row.Sample))
		}
		if row.TrainWall <= 0 || row.LocalizeWall <= 0 {
			t.Errorf("%s: non-positive wall timings %v/%v", row.Technique, row.TrainWall, row.LocalizeWall)
		}
	}
	// The paper's method must win (or tie) the containment accuracy on its
	// own benchmark at the clean 1x cell.
	paper := cell.Rows[0]
	for _, row := range cell.Rows[1:] {
		if row.Contain > paper.Contain {
			t.Errorf("%s containment %.2f beats the paper method's %.2f", row.Technique, row.Contain, paper.Contain)
		}
	}
	// The rendered table mentions every technique.
	text := r.String()
	for _, name := range RosterNames() {
		if !strings.Contains(text, name) {
			t.Errorf("rendered report missing technique %q", name)
		}
	}
}

// TestArenaEvaluateParity pins the arena to the two eval front doors on
// both paper apps, from one quick arena run per app at 1x and 4x:
//
//   - the 1x Paper row gives the per-scenario verdicts `causalfl evaluate`
//     produces. The arena collects with the union metric set and the Paper
//     technique projects to the derived set; because collection builds each
//     metric's series independently from the same sampled windows,
//     projection is exact and the verdicts must be bit-identical.
//   - the 4x cell gives, for the six techniques of the former baseline
//     comparison report sections, the per-case answers, containment and
//     informativeness of eval.CompareTechniques on that comparison's config
//     (union metrics plus the error-log rate, trained at 1x, tested at 4x).
//     The arena's 4x rows are that comparison.
func TestArenaEvaluateParity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation campaign")
	}
	type verdict struct {
		Target     string
		Candidates []string
		Correct    bool
	}
	for _, app := range PaperApps() {
		o := Options{
			Apps:        []AppSpec{app},
			Multipliers: []float64{1, 4},
			Losses:      []float64{0},
			Quick:       true,
			Workers:     1,
		}
		r, err := Run(ctx, o)
		if err != nil {
			t.Fatalf("%s: arena: %v", app.Name, err)
		}
		row := r.Apps[0].Cells[0].Rows[0]
		if row.Technique != "causalfl/intersection+parsimony" {
			t.Fatalf("%s: first row is %q, not the paper method", app.Name, row.Technique)
		}
		var got []verdict
		for _, v := range row.Verdicts {
			got = append(got, verdict{v.Target, v.Candidates, v.Correct})
		}

		eo := eval.Options{Seed: 42, Quick: true, Workers: 1}
		cfg := eo.Apply(eval.Config{Build: app.Build, Metrics: metrics.DerivedAll(), TestMultiplier: 1})
		_, report, err := eval.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s: eval.Run: %v", app.Name, err)
		}
		var want []verdict
		for _, out := range report.Outcomes {
			want = append(want, verdict{out.Target, out.Candidates, out.Correct})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: arena Paper verdicts diverge from causalfl evaluate:\narena: %+v\neval:  %+v", app.Name, got, want)
		}

		built, err := app.Build(sim.NewEngine(0))
		if err != nil {
			t.Fatal(err)
		}
		union := append(metrics.RawAll(), metrics.DerivedAll()...)
		union = append(union, metrics.ErrLogRate)
		cmpCfg := eo.Apply(eval.Config{Build: app.Build, Metrics: union, TestMultiplier: 4})
		gradings, err := eval.CompareTechniques(ctx, cmpCfg, cmpCfg, []baselines.Technique{
			&baselines.Paper{MetricNames: metrics.Names(metrics.DerivedAll())},
			baselines.ErrLogOnly(),
			&baselines.SingleWorld{},
			&baselines.TopologyRCA{Edges: built.Edges},
			&baselines.Observational{},
			&baselines.RandomGuess{Seed: 42},
		})
		if err != nil {
			t.Fatalf("%s: compare: %v", app.Name, err)
		}
		cell := r.Apps[0].Cells[1]
		if cell.Multiplier != 4 || cell.Loss != 0 {
			t.Fatalf("%s: second cell is %gx/%g, want 4x/0", app.Name, cell.Multiplier, cell.Loss)
		}
		rows := make(map[string]Row, len(cell.Rows))
		for _, row := range cell.Rows {
			rows[row.Technique] = row
		}
		for _, g := range gradings {
			row, ok := rows[g.Technique]
			if !ok {
				t.Errorf("%s 4x: arena has no %q row", app.Name, g.Technique)
				continue
			}
			got, want := []verdict(nil), []verdict(nil)
			for _, v := range row.Verdicts {
				got = append(got, verdict{v.Target, v.Candidates, v.Correct})
			}
			for _, out := range g.Outcomes {
				want = append(want, verdict{out.Target, out.Candidates, out.Correct})
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s 4x %s: arena answers diverge from CompareTechniques:\narena:   %+v\ncompare: %+v", app.Name, g.Technique, got, want)
			}
			if row.Contain != g.Accuracy || row.MeanInformativeness != g.MeanInformativeness {
				t.Errorf("%s 4x %s: arena contain/inform %v/%v, CompareTechniques %v/%v",
					app.Name, g.Technique, row.Contain, row.MeanInformativeness, g.Accuracy, g.MeanInformativeness)
			}
		}
	}
}

// countingSet is a set-only technique that names one service per call,
// cycling through its services, and counts how often it is asked.
type countingSet struct {
	services []string
	calls    int
}

func (c *countingSet) Name() string { return "counting" }

func (c *countingSet) Train(context.Context, *metrics.Snapshot, map[string]*metrics.Snapshot) error {
	return nil
}

func (c *countingSet) Localize(context.Context, *metrics.Snapshot) ([]string, error) {
	answer := []string{c.services[c.calls%len(c.services)]}
	c.calls++
	return answer, nil
}

// TestMeasureAsksSetTechniqueOncePerCase pins that a set-only technique is
// graded on one answer per case: its ranking is the lifted set it already
// gave, so a one-service answer scores top-1 exactly as it scores contain.
// Asking again for the ranking would draw a second, different answer.
func TestMeasureAsksSetTechniqueOncePerCase(t *testing.T) {
	tech := &countingSet{services: []string{"a", "b", "c"}}
	cases := []eval.TestCase{{Target: "a"}, {Target: "b"}, {Target: "c"}, {Target: "b"}}
	clk := &clock.Fake{Step: time.Millisecond}
	row, err := measure(ctx, clk, tech, &eval.TrainingData{}, cases, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tech.calls != len(cases) {
		t.Errorf("Localize called %d times for %d cases, want one per case", tech.calls, len(cases))
	}
	if row.Top1 != row.Contain || row.Exact != row.Contain || row.Top3 != row.Contain {
		t.Errorf("one-service answers: top1 %.2f top3 %.2f exact %.2f, want each = contain %.2f",
			row.Top1, row.Top3, row.Exact, row.Contain)
	}
	if row.Contain != 0.75 {
		t.Errorf("contain = %.2f, want 0.75 (three of four cycled answers hit)", row.Contain)
	}
	for _, v := range row.Verdicts {
		if !reflect.DeepEqual(v.Top, v.Candidates) {
			t.Errorf("%s: ranking head %v is not the lifted answer %v", v.Target, v.Top, v.Candidates)
		}
	}
}

func TestReadArenaReportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation campaign")
	}
	o := Options{
		Apps:        []AppSpec{PaperApps()[0]},
		Multipliers: []float64{1},
		Losses:      []float64{0.3},
		Quick:       true,
		Workers:     0,
	}
	r, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArenaReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("JSON round trip is not byte-stable")
	}
}

func TestReadArenaReportRejectsHostileInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"not json", "not json"},
		{"wrong kind", `{"kind":"causalfl-repair-report","version":1,"report":{}}`},
		{"wrong version", `{"kind":"causalfl-arena-report","version":99,"report":{}}`},
		{"no report", `{"kind":"causalfl-arena-report","version":1}`},
		{"unknown field", `{"kind":"causalfl-arena-report","version":1,"bogus":3,"report":{}}`},
		{"empty report", `{"kind":"causalfl-arena-report","version":1,"report":{}}`},
		{"bad clock", `{"kind":"causalfl-arena-report","version":1,"report":{"seed":1,"clock_mode":"sundial","apps":[{"app":"a","services":2,"cells":[{"multiplier":1,"loss":0,"cases":1,"rows":[{"technique":"t"}]}]}]}}`},
		{"loss out of range", `{"kind":"causalfl-arena-report","version":1,"report":{"seed":1,"clock_mode":"virtual","apps":[{"app":"a","services":2,"cells":[{"multiplier":1,"loss":2,"cases":1,"rows":[{"technique":"t"}]}]}]}}`},
		{"rate out of range", `{"kind":"causalfl-arena-report","version":1,"report":{"seed":1,"clock_mode":"virtual","apps":[{"app":"a","services":2,"cells":[{"multiplier":1,"loss":0,"cases":1,"rows":[{"technique":"t","top1":7}]}]}]}}`},
	} {
		if _, err := ReadArenaReport(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestRunRejectsBadGrid(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"negative loss", Options{Losses: []float64{-0.1}}},
		{"loss above one", Options{Losses: []float64{1.5}}},
		{"zero fraction", Options{Fractions: []float64{0}}},
		{"fraction above one", Options{Fractions: []float64{2}}},
		{"zero multiplier", Options{Multipliers: []float64{0}}},
	} {
		if _, err := Run(ctx, tc.o); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestTruncateSnapshotKeepsFloor(t *testing.T) {
	snap := metrics.NewSnapshot([]string{"m"}, []string{"a"})
	snap.Data["m"]["a"] = []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := truncateSnapshot(snap, 0.5)
	if n := len(got.Data["m"]["a"]); n != 4 {
		t.Errorf("half of 8 windows = %d, want 4", n)
	}
	got = truncateSnapshot(snap, 0.125)
	if n := len(got.Data["m"]["a"]); n != minTrainWindows {
		t.Errorf("floor = %d, want %d", n, minTrainWindows)
	}
	// The original is untouched.
	if len(snap.Data["m"]["a"]) != 8 {
		t.Error("truncation mutated its input")
	}
}
