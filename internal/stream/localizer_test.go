package stream

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestHysteresisMatchesWindowedCount holds the ring filter to its
// definition: after every push, the retained sets are the last N pushed,
// oldest first, and a service is confirmed exactly when at least K of them
// name it.
func TestHysteresisMatchesWindowedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	names := []string{"a", "b", "c", "d", "e"}
	for _, kn := range [][2]int{{1, 1}, {2, 3}, {3, 5}, {5, 5}} {
		k, n := kn[0], kn[1]
		h := newHysteresis(k, n)
		var pushed [][]string
		for step := 0; step < 200; step++ {
			var set []string
			for _, s := range names {
				if rng.Intn(3) == 0 {
					set = append(set, s)
				}
			}
			h.push(set)
			pushed = append(pushed, set)

			last := pushed[max(0, len(pushed)-n):]
			got := h.retained()
			if len(got) != len(last) {
				t.Fatalf("K=%d N=%d step %d: %d sets retained, want %d", k, n, step, len(got), len(last))
			}
			for i := range last {
				if !slices.Equal(got[i], last[i]) {
					t.Fatalf("K=%d N=%d step %d: retained %v, want %v", k, n, step, got, last)
				}
			}
			counts := map[string]int{}
			for _, set := range last {
				for _, s := range set {
					counts[s]++
				}
			}
			var want []string
			for s, c := range counts {
				if c >= k {
					want = append(want, s)
				}
			}
			sort.Strings(want)
			if got := h.confirmed(); !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d N=%d step %d: confirmed %v, want %v", k, n, step, got, want)
			}
		}
	}
}
