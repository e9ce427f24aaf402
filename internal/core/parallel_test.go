package core

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"causalfl/internal/metrics"
)

// campaignFixture builds one fixed campaign (baseline, interventions,
// production) for the determinism and race tests below.
func campaignFixture() (*metrics.Snapshot, map[string]*metrics.Snapshot, *metrics.Snapshot) {
	f := newFixture()
	baseline := f.snapshot(nil)
	interventions := make(map[string]*metrics.Snapshot)
	for target, worlds := range f.groundTruth() {
		interventions[target] = f.snapshot(worlds)
	}
	production := f.snapshot(f.groundTruth()["a"])
	return baseline, interventions, production
}

// TestLearnDeterministicAcrossWorkers pins the tentpole contract: the model
// learned with the serial path is byte-identical (through JSON) to the model
// learned at every parallel worker count.
func TestLearnDeterministicAcrossWorkers(t *testing.T) {
	baseline, interventions, _ := campaignFixture()
	var want []byte
	for _, workers := range []int{1, 2, 3, 8, 32} {
		l, err := NewLearner(WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		model, err := l.Learn(context.Background(), baseline, interventions)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.Marshal(model)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("workers=%d: model differs from serial result", workers)
		}
	}
}

// TestLocalizeDeterministicAcrossWorkers does the same for Algorithm 2: the
// full Localization (votes, anomalies, winners, coverage) must not depend on
// the worker count.
func TestLocalizeDeterministicAcrossWorkers(t *testing.T) {
	baseline, interventions, production := campaignFixture()
	l, err := NewLearner()
	if err != nil {
		t.Fatal(err)
	}
	model, err := l.Learn(context.Background(), baseline, interventions)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, workers := range []int{1, 2, 8, 32} {
		lo, err := NewLocalizer(WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		loc, err := lo.Localize(context.Background(), model, production)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.Marshal(loc)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("workers=%d: localization differs from serial result", workers)
		}
		multi, err := lo.LocalizeMulti(context.Background(), model, production, 2)
		if err != nil {
			t.Fatalf("workers=%d: multi: %v", workers, err)
		}
		if len(multi) == 0 || multi[0] != "a" {
			t.Fatalf("workers=%d: multi = %v, want a first", workers, multi)
		}
	}
}

// TestConcurrentLearnAndLocalize exercises the shared-read paths under the
// race detector: one trained Model serves concurrent Localize/LocalizeMulti
// calls while fresh Learn runs chew on the same baseline and intervention
// snapshots. Everything here is read-shared; the test fails only under
// `go test -race` if any of it is secretly written.
func TestConcurrentLearnAndLocalize(t *testing.T) {
	baseline, interventions, production := campaignFixture()
	l, err := NewLearner(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	model, err := l.Learn(context.Background(), baseline, interventions)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := NewLocalizer(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 12)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.Learn(context.Background(), baseline, interventions); err != nil {
				errc <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := lo.Localize(context.Background(), model, production); err != nil {
				errc <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := lo.LocalizeMulti(context.Background(), model, production, 2); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestCancelledContext pins the context contract: a pre-cancelled context
// aborts Learn, Localize, LocalizeMulti and Detect with the context error.
func TestCancelledContext(t *testing.T) {
	baseline, interventions, production := campaignFixture()
	l, err := NewLearner(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	model, err := l.Learn(context.Background(), baseline, interventions)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := NewLocalizer(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Learn(ctx, baseline, interventions); err != context.Canceled {
		t.Fatalf("Learn under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := lo.Localize(ctx, model, production); err != context.Canceled {
		t.Fatalf("Localize under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := lo.LocalizeMulti(ctx, model, production, 2); err != context.Canceled {
		t.Fatalf("LocalizeMulti under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := Detect(ctx, DetectConfig{}, baseline, production, "m1"); err != context.Canceled {
		t.Fatalf("Detect under cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestDetectInvariants pins the unified detection API's contracts: every
// pair of a clean full grid is tested, tolerant mode reproduces the strict
// result there, and invalid configuration is rejected. Worker-count
// independence is the localizer's (TestLocalizeDeterministicAcrossWorkers):
// Detect itself runs serially.
func TestDetectInvariants(t *testing.T) {
	f := newFixture()
	baseline := f.snapshot(nil)
	production := f.snapshot(f.groundTruth()["a"])

	for _, metric := range f.metrics {
		det, err := Detect(context.Background(), DetectConfig{Alpha: 0.05}, baseline, production, metric)
		if err != nil {
			t.Fatal(err)
		}
		if det.Tested != len(f.services) {
			t.Fatalf("%s: tested %d services, want %d", metric, det.Tested, len(f.services))
		}
		if _, err := Detect(context.Background(), DetectConfig{FDR: 0.05}, baseline, production, metric); err != nil {
			t.Fatal(err)
		}
		tol, err := Detect(context.Background(), DetectConfig{Alpha: 0.05, Tolerant: true}, baseline, production, metric)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tol, det) {
			t.Fatalf("%s: tolerant %+v != strict %+v on clean grid", metric, tol, det)
		}
	}

	if _, err := Detect(context.Background(), DetectConfig{FDR: 2}, baseline, production, "m1"); err == nil {
		t.Fatal("Detect accepted FDR level 2")
	}
	if _, err := Detect(context.Background(), DetectConfig{}, nil, production, "m1"); err == nil {
		t.Fatal("Detect accepted nil baseline")
	}
	if _, err := Detect(context.Background(), DetectConfig{}, baseline, nil, "m1"); err == nil {
		t.Fatal("Detect accepted nil production")
	}
}
