package core

import (
	"context"
	"math/rand"
	"testing"

	"causalfl/internal/metrics"
)

func TestWithFDRValidation(t *testing.T) {
	for _, q := range []float64{0, 1, -0.1, 2} {
		if _, err := NewLearner(WithFDR(q)); err == nil {
			t.Errorf("WithFDR(%v) accepted", q)
		}
		if _, err := NewLocalizer(WithFDR(q)); err == nil {
			t.Errorf("WithFDR(%v) accepted by NewLocalizer", q)
		}
	}
	if _, err := NewLearner(WithFDR(0.1)); err != nil {
		t.Fatal(err)
	}
}

func TestFDRPipelineStillLocalizes(t *testing.T) {
	f := newFixture()
	baseline := f.snapshot(nil)
	interventions := make(map[string]*metrics.Snapshot)
	for target, worlds := range f.groundTruth() {
		interventions[target] = f.snapshot(worlds)
	}
	learner, err := NewLearner(WithFDR(0.05))
	if err != nil {
		t.Fatal(err)
	}
	model, err := learner.Learn(context.Background(), baseline, interventions)
	if err != nil {
		t.Fatal(err)
	}
	localizer, err := NewLocalizer(WithFDR(0.05))
	if err != nil {
		t.Fatal(err)
	}
	for target, worlds := range f.groundTruth() {
		loc, err := localizer.Localize(context.Background(), model, f.snapshot(worlds))
		if err != nil {
			t.Fatal(err)
		}
		if !setEqual(loc.Candidates, target) {
			t.Errorf("FDR pipeline localized fault %s to %v", target, loc.Candidates)
		}
	}
}

func TestFDRSuppressesHealthyFalseAnomalies(t *testing.T) {
	// Over a large healthy family with an unguarded KS test, per-test
	// alpha flags ~5% of services while BH rarely flags any: the
	// multiple-testing motivation in one assertion.
	rng := rand.New(rand.NewSource(17))
	const nServices = 60
	services := make([]string, nServices)
	for i := range services {
		services[i] = string(rune('A'+i%26)) + string(rune('a'+i/26))
	}
	mk := func() *metrics.Snapshot {
		snap := metrics.NewSnapshot([]string{"m"}, services)
		for _, svc := range services {
			series := make([]float64, 19)
			for i := range series {
				series[i] = rng.NormFloat64()
			}
			snap.Data["m"][svc] = series
		}
		return snap
	}
	baseline := mk()
	production := mk()

	perTestAnoms := 0
	fdrAnoms := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		production = mk()
		perTest, err := Detect(context.Background(), DetectConfig{RawKS: true, Alpha: 0.05}, baseline, production, "m")
		if err != nil {
			t.Fatal(err)
		}
		fdr, err := Detect(context.Background(), DetectConfig{RawKS: true, FDR: 0.05}, baseline, production, "m")
		if err != nil {
			t.Fatal(err)
		}
		perTestAnoms += len(perTest.Anomalous)
		fdrAnoms += len(fdr.Anomalous)
	}
	if fdrAnoms >= perTestAnoms {
		t.Fatalf("BH flagged %d healthy anomalies vs %d for per-test alpha; FDR should shrink the family-wise error",
			fdrAnoms, perTestAnoms)
	}
}

func TestDetectFDRValidation(t *testing.T) {
	f := newFixture()
	snap := f.snapshot(nil)
	for _, q := range []float64{-0.1, 1, 2} {
		if _, err := Detect(context.Background(), DetectConfig{RawKS: true, FDR: q}, snap, snap, "m1"); err == nil {
			t.Errorf("FDR=%v accepted", q)
		}
	}
}
