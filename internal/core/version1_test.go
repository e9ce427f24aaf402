package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"causalfl/internal/metrics"
)

// readVersion1 reads testdata/model-v1.json: the causalbench model of
// `causalfl learn` on quick collection data, as the first release wrote it,
// with every baseline series in collection order.
func readVersion1(t *testing.T) *Model {
	t.Helper()
	f, err := os.Open("testdata/model-v1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	model, err := ReadModel(f)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestVersion1ModelLocalizes: a version-1 model file still reads, its
// baseline series come out sorted, and localizing a fixed production
// snapshot (causalbench, fault in D) with it returns the Localization the
// first release returned, byte for byte as JSON.
func TestVersion1ModelLocalizes(t *testing.T) {
	model := readVersion1(t)
	unsorted := 0
	for _, bySvc := range model.Baseline.Data {
		for _, series := range bySvc {
			if !slices.IsSorted(series) {
				unsorted++
			}
		}
	}
	if unsorted > 0 {
		t.Fatalf("%d baseline series left unsorted", unsorted)
	}
	blob, err := os.ReadFile("testdata/model-v1.production.json")
	if err != nil {
		t.Fatal(err)
	}
	var production metrics.Snapshot
	if err := json.Unmarshal(blob, &production); err != nil {
		t.Fatal(err)
	}
	lo, err := NewLocalizer(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	loc, err := lo.Localize(context.Background(), model, &production)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(loc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/model-v1.localize.json")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("version-1 model localizes to\n%s\nwant\n%s", got, want)
	}
}

// TestDecodedAndLearnedBaselinesSorted: json.Unmarshal into a Model — the
// decode serve's create-tenant bodies and snapshots use — sorts the
// baseline, and Learn sorts its private copy while leaving the caller's
// snapshot in collection order.
func TestDecodedAndLearnedBaselinesSorted(t *testing.T) {
	f := newFixture()
	baseline := f.snapshot(nil)
	orig := baseline.Clone()
	interventions := map[string]*metrics.Snapshot{}
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
	if !reflect.DeepEqual(baseline, orig) {
		t.Fatal("Learn modified the caller's baseline")
	}
	hand := *model
	hand.Baseline = orig // collection order, as a hand-built model may carry
	blob, err := json.Marshal(&hand)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Model
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, m := range f.metrics {
		for _, svc := range f.services {
			learned, dec, raw := model.Baseline.Data[m][svc], decoded.Baseline.Data[m][svc], orig.Data[m][svc]
			if !slices.IsSorted(learned) || !slices.IsSorted(dec) {
				t.Fatalf("%s/%s: learned %v, decoded %v: want both sorted", m, svc, learned, dec)
			}
			if slices.IsSorted(raw) {
				t.Fatalf("%s/%s: fixture series already sorted", m, svc)
			}
			if !reflect.DeepEqual(dec, learned) {
				t.Fatalf("%s/%s: decoded %v, learned %v", m, svc, dec, learned)
			}
		}
	}
}
