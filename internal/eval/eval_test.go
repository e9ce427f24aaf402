package eval

import (
	"context"
	"strings"
	"testing"

	"causalfl/internal/apps/causalbench"
	"causalfl/internal/baselines"
	"causalfl/internal/core"
	"causalfl/internal/metrics"
)

// quickCfg is a shortened CausalBench campaign used across the tests.
func quickCfg() Config {
	return Options{Seed: 7, Quick: true}.Apply(Config{
		Build:   causalbench.Build,
		Metrics: metrics.DerivedAll(),
	})
}

func TestInformativeness(t *testing.T) {
	tests := []struct {
		n, x int
		want float64
	}{
		{9, 1, 1.0},
		{9, 9, 0.0},
		{9, 3, 0.75},
		{1, 1, 1.0},  // degenerate universe
		{9, 12, 0.0}, // clamped
		{9, 0, 0.0},  // an empty answer excludes nobody
	}
	for _, tt := range tests {
		if got := Informativeness(tt.n, tt.x); got != tt.want {
			t.Errorf("Informativeness(%d,%d) = %v, want %v", tt.n, tt.x, got, tt.want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{Build: causalbench.Build}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Alpha != core.DefaultAlpha || cfg.Rounds != 1 || cfg.TestMultiplier != 1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if _, err := (Config{}).withDefaults(); err == nil {
		t.Fatal("accepted config without Build")
	}
}

func TestQuickCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	cfg := quickCfg()
	model, err := Train(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(model.Targets) != 8 {
		t.Fatalf("trained %d targets, want 8 (CausalBench injectable services)", len(model.Targets))
	}
	if len(model.Services) != 9 {
		t.Fatalf("universe has %d services, want 9", len(model.Services))
	}

	report, err := Evaluate(context.Background(), cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outcomes) != 8 {
		t.Fatalf("report has %d outcomes, want 8", len(report.Outcomes))
	}
	// Even the abbreviated campaign must localize most faults at matched
	// load (the full-length campaign reaches accuracy 1.0).
	if report.Accuracy < 0.75 {
		t.Fatalf("quick campaign accuracy %.2f too low:\n%s", report.Accuracy, report)
	}
	if report.MeanInformativeness < 0.7 {
		t.Fatalf("quick campaign informativeness %.2f too low:\n%s", report.MeanInformativeness, report)
	}
	out := report.String()
	for _, want := range []string{"causalbench", "accuracy=", "fault"} {
		if !strings.Contains(out, want) {
			t.Errorf("report rendering missing %q:\n%s", want, out)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	run := func() string {
		cfg := quickCfg()
		cfg.Targets = []string{"B", "D"} // small sweep for speed
		model, err := Train(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		report, err := Evaluate(context.Background(), cfg, model)
		if err != nil {
			t.Fatal(err)
		}
		return report.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical configs produced different reports:\n%s\nvs\n%s", a, b)
	}
}

func TestCollectTrainingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	cfg := quickCfg()
	cfg.Targets = []string{"C"}
	data, err := CollectTraining(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.Baseline.Validate(); err != nil {
		t.Fatal(err)
	}
	// 150s of 5s samples with 30s/15s windows -> 9 windows.
	if got := data.Baseline.WindowCount(); got != 9 {
		t.Fatalf("baseline has %d windows, want 9", got)
	}
	snap, ok := data.Interventions["C"]
	if !ok {
		t.Fatal("missing intervention dataset for C")
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	// The faulted service must show a visible drop in received packets.
	base, err := data.Baseline.Series("cpu_per_rx_packets", "C")
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := snap.Series("cpu_per_rx_packets", "C")
	if err != nil {
		t.Fatal(err)
	}
	if base[0] <= 0 {
		t.Fatal("baseline cpu ratio for C should be positive")
	}
	for _, v := range faulted {
		if v != 0 {
			t.Fatalf("faulted C still shows cpu ratio %v, want 0 (connection refused)", v)
		}
	}
}

func TestEvaluateValidation(t *testing.T) {
	cfg := quickCfg()
	if _, err := Evaluate(context.Background(), cfg, nil); err == nil {
		t.Fatal("Evaluate accepted nil model")
	}
}

func TestCompareTechniquesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	union := append(metrics.RawAll(), metrics.DerivedAll()...)
	union = append(union, metrics.ErrLogRate)
	cfg := Options{Seed: 11, Quick: true}.Apply(Config{
		Build:          causalbench.Build,
		Metrics:        union,
		TestMultiplier: 4,
	})
	ours := &baselines.Paper{MetricNames: metrics.Names(metrics.DerivedAll())}
	errlog := baselines.ErrLogOnly()
	random := &baselines.RandomGuess{Seed: 3}
	scores, err := CompareTechniques(context.Background(), cfg, cfg, []baselines.Technique{ours, errlog, random})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("got %d scores", len(scores))
	}
	if scores[0].Accuracy < scores[1].Accuracy {
		t.Errorf("our method (%.2f) should beat the error-log-only baseline (%.2f) at 4x load",
			scores[0].Accuracy, scores[1].Accuracy)
	}
	if scores[0].Accuracy < scores[2].Accuracy {
		t.Errorf("our method (%.2f) should beat random guessing (%.2f)",
			scores[0].Accuracy, scores[2].Accuracy)
	}
	rendered := RenderScores("test", scores)
	if !strings.Contains(rendered, "causalfl/") || !strings.Contains(rendered, "random") {
		t.Errorf("rendering missing technique names:\n%s", rendered)
	}
}

func TestCompareTechniquesValidation(t *testing.T) {
	if _, err := CompareTechniques(context.Background(), quickCfg(), quickCfg(), nil); err == nil {
		t.Fatal("accepted empty technique list")
	}
}

func TestRunFig1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunFig1(context.Background(), Options{Seed: 5, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	p1 := result.Sets["pattern1"]
	p2 := result.Sets["pattern2"]
	if p1 == nil || p2 == nil {
		t.Fatal("missing pattern results")
	}
	check := func(got []string, want ...string) bool {
		if len(got) != len(want) {
			return false
		}
		m := map[string]bool{}
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
	// The figure's claim: the two metrics learn different causal worlds.
	if !check(p1["msg_rate"]["B"], "A", "B") {
		t.Errorf("pattern1 C(B, #logs) = %v, want {A,B} (errors on the response path)", p1["msg_rate"]["B"])
	}
	if !check(p1["req_rate"]["B"], "B", "C") {
		t.Errorf("pattern1 C(B, #requests) = %v, want {B,C} (request-path starvation)", p1["req_rate"]["B"])
	}
	if !check(p2["msg_rate"]["D"], "D", "H") {
		t.Errorf("pattern2 C(D, #logs) = %v, want {D,H}", p2["msg_rate"]["D"])
	}
	if !check(p2["req_rate"]["D"], "D", "G") {
		t.Errorf("pattern2 C(D, #requests) = %v, want {D,G} (omission fault)", p2["req_rate"]["D"])
	}
	if !strings.Contains(result.String(), "pattern2") {
		t.Error("Fig1 rendering incomplete")
	}
}

func TestRunFig2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunFig2(context.Background(), Options{Seed: 5, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// The confounder effect: failing one branch raises the request rate on
	// the other despite externally fixed load.
	if result.FaultCI.Mean <= result.HealthyI.Mean {
		t.Errorf("req@I did not increase under fault on C: %.1f -> %.1f",
			result.HealthyI.Mean, result.FaultCI.Mean)
	}
	if result.FaultIC.Mean <= result.HealthyC.Mean {
		t.Errorf("req@C did not increase under fault on I: %.1f -> %.1f",
			result.HealthyC.Mean, result.FaultIC.Mean)
	}
	if !strings.Contains(result.String(), "KS p-value") {
		t.Error("Fig2 rendering incomplete")
	}
}

func TestRunCausalSetsExampleQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunCausalSetsExample(context.Background(), Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	join := func(s []string) string { return strings.Join(s, ",") }
	if join(result.MsgRateSet) != "A,B,E" {
		t.Errorf("C(B, msg rate) = {%s}, want {A,B,E} (paper §VI-B)", join(result.MsgRateSet))
	}
	if join(result.CPUSet) != "B,C,E" {
		t.Errorf("C(B, cpu) = {%s}, want {B,C,E} (paper §VI-B)", join(result.CPUSet))
	}
}

func TestRunLoggingDisciplineQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	result, err := RunLoggingDiscipline(context.Background(), Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	containsE := func(set []string) bool {
		for _, s := range set {
			if s == "E" {
				return true
			}
		}
		return false
	}
	// §III-B: the heartbeat's omission is the only msg-rate signal on E;
	// silencing the developer's log erases the causal edge.
	if !containsE(result.WithLogging) {
		t.Errorf("C(B, msg) with logging = %v, want E included", result.WithLogging)
	}
	if containsE(result.WithoutLogging) {
		t.Errorf("C(B, msg) without logging = %v, want E absent", result.WithoutLogging)
	}
	if !strings.Contains(result.String(), "logging disabled") {
		t.Error("rendering incomplete")
	}
}

func TestEvaluateRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	cfg := quickCfg()
	cfg.Targets = []string{"B", "D"}
	cfg.Rounds = 2
	model, err := Train(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Evaluate(context.Background(), cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outcomes) != 4 {
		t.Fatalf("2 rounds x 2 targets produced %d outcomes, want 4", len(report.Outcomes))
	}
	// Rounds use distinct seeds: both rounds should still localize.
	if report.Accuracy < 0.75 {
		t.Errorf("multi-round accuracy %.2f", report.Accuracy)
	}
}

func TestReportMisses(t *testing.T) {
	r := &Report{Outcomes: []Outcome{
		{Target: "a", Correct: true},
		{Target: "b", Correct: false},
		{Target: "c", Correct: false},
	}}
	misses := r.Misses()
	if len(misses) != 2 || misses[0] != "b" || misses[1] != "c" {
		t.Fatalf("Misses = %v", misses)
	}
}
