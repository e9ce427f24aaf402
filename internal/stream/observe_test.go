package stream

import (
	"context"
	"reflect"
	"sort"
	"testing"
)

// observeSortedRef is the reference ingest walk ObserveHop must reproduce:
// every (metric, service) pair in sorted order through Observe, stopping at
// the first error.
func observeSortedRef(d *Detector, hop map[string]map[string]float64) error {
	ms := make([]string, 0, len(hop))
	for m := range hop {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	for _, m := range ms {
		svcs := make([]string, 0, len(hop[m]))
		for svc := range hop[m] {
			svcs = append(svcs, svc)
		}
		sort.Strings(svcs)
		for _, svc := range svcs {
			if err := d.Observe(m, svc, hop[m][svc]); err != nil {
				return err
			}
		}
	}
	return nil
}

// withPair returns a copy of hop with metric m's service svc set to v.
func withPair(hop map[string]map[string]float64, m, svc string, v float64) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(hop)+1)
	for hm, vals := range hop {
		cp := make(map[string]float64, len(vals)+1)
		for s, x := range vals {
			cp[s] = x
		}
		out[hm] = cp
	}
	if out[m] == nil {
		out[m] = make(map[string]float64)
	}
	out[m][svc] = v
	return out
}

// TestObserveHopErrorContract pins what a failing hop does: ObserveHop
// returns the error the sorted reference walk returns and leaves the same
// partial ingest behind — the pairs before the failing one, in sorted
// order, and none after — so the window contents, the push counts and the
// next detections all match the reference detector's.
func TestObserveHopErrorContract(t *testing.T) {
	w, err := NewSynth(SynthConfig{Services: 12, Metrics: 3, BaselineLen: 20, Hops: 6, Seed: 5, FaultService: 2, FaultAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	last := w.Hops[len(w.Hops)-1]
	cases := []struct {
		name     string
		tolerant bool
		hop      map[string]map[string]float64
	}{
		// "metric-1b" sorts between metric-1 and metric-2: metric-0 and
		// metric-1 are ingested, metric-2 is not. The stray service is
		// skipped silently in tolerant mode.
		{"tolerant-unknown-metric", true, withPair(withPair(last, "metric-1b", "svc-00", 1), "metric-0", "svc-stray", 2)},
		// "svc-05b" sorts between svc-05 and svc-06 of metric-1: metric-0
		// and metric-1's svc-00..svc-05 are ingested.
		{"strict-unknown-service", false, withPair(last, "metric-1", "svc-05b", 1)},
		{"strict-unknown-metric", false, withPair(last, "metric-0a", "svc-00", 1)},
		{"strict-unknown-first-pair", false, withPair(last, "metric-0", "svc-", 1)},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Detector {
				d, err := NewDetector(w.Baseline, WithWindow(4), WithTolerant(tc.tolerant), WithMinSamples(2))
				if err != nil {
					t.Fatal(err)
				}
				for _, hop := range w.Hops[:3] {
					if err := d.ObserveHop(hop); err != nil {
						t.Fatal(err)
					}
				}
				return d
			}
			got, want := build(), build()
			gotErr := got.ObserveHop(tc.hop)
			wantErr := observeSortedRef(want, tc.hop)
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("ObserveHop error %v, sorted walk %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got.Materialize(), want.Materialize()) {
				t.Fatal("partial ingest differs from the sorted walk's")
			}
			for p := 0; p < got.win.Count(); p++ {
				if got.win.Pushed(p) != want.win.Pushed(p) {
					m, svc := got.names(p)
					t.Fatalf("%s/%s pushed %d times, sorted walk %d", m, svc, got.win.Pushed(p), want.win.Pushed(p))
				}
			}
			if !tc.tolerant {
				return
			}
			gotDet, err1 := got.DetectAll(ctx)
			wantDet, err2 := want.DetectAll(ctx)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(gotDet, wantDet) {
				t.Fatalf("detections after the failed hop differ: %v (%v) vs %v (%v)", gotDet, err1, wantDet, err2)
			}
		})
	}
}
