package stats

import (
	"fmt"
	"math"
	"sort"
)

// ECDFSketch is a bounded-memory summary of a fixed sample's empirical CDF
// with a deterministic, provable rank-error bound:
//
//	0 ≤ F(x) − F̃(x) ≤ (⌈n/k⌉−1)/n < ε  for every x, where k = ⌈2/ε⌉.
//
// Construction keeps k anchor order statistics at target ranks ⌈j·n/k⌉,
// j = 1..k, each stored with its exact rank (the count of sample values ≤ the
// anchor). Between anchors the sketch answers with the rank of the last
// anchor at or below x, so the estimate is one-sided (never above the true
// ECDF) and the gap is bounded by the largest rank step between consecutive
// targets. When n ≤ k every distinct value is an anchor and the sketch
// reproduces the exact ECDF; SketchCutoff reports that threshold.
//
// Unlike randomized KLL/t-digest summaries the construction draws no
// randomness, so a sketch is bit-reproducible across runs (the determinism
// contract causalfl-vet's rand-flow pass enforces for this package).
//
// No detector uses the sketch: every KS test runs against the exact
// baseline. The type stays as a tested standalone summary.
type ECDFSketch struct {
	// n is the original sample size; ranks are exact counts out of n.
	n   int
	eps float64
	// cuts are the distinct anchor values, ascending; the last is the sample
	// maximum. ranks[i] is the exact number of sample values ≤ cuts[i], so
	// ranks[len-1] == n.
	cuts  []float64
	ranks []int
}

// SketchCutoff returns k = ⌈2/ε⌉, the anchor budget for error bound eps. A
// sample of size n ≤ k is stored exactly (zero rank error).
func SketchCutoff(eps float64) int {
	if eps <= 0 || eps >= 1 {
		return 0
	}
	return int(math.Ceil(2 / eps))
}

// NewECDFSketch summarizes sample with rank-error budget eps in (0,1). The
// input is copied; every value must be finite (a baseline with NaN/±Inf holes
// has no well-defined order statistics to anchor on — sanitize first).
func NewECDFSketch(sample []float64, eps float64) (*ECDFSketch, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("stats: sketch of empty sample")
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("stats: sketch eps must be in (0,1), got %v", eps)
	}
	for _, v := range sample {
		if !isFinite(v) {
			return nil, fmt.Errorf("stats: sketch sample must be finite, got %v", v)
		}
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return newECDFSketchSorted(s, eps), nil
}

// newECDFSketchSorted builds the sketch over an already-sorted finite sample.
// The slice is only read during construction and not retained.
func newECDFSketchSorted(sorted []float64, eps float64) *ECDFSketch {
	n := len(sorted)
	k := SketchCutoff(eps)
	sk := &ECDFSketch{n: n, eps: eps}
	if n <= k {
		// Small sample: one anchor per distinct value, exact ECDF.
		for i := 0; i < n; i++ {
			if i+1 < n && sorted[i+1] == sorted[i] { //vet:allow floateq -- duplicate collapse over exact stored values
				continue
			}
			sk.cuts = append(sk.cuts, sorted[i])
			sk.ranks = append(sk.ranks, i+1)
		}
		return sk
	}
	sk.cuts = make([]float64, 0, k)
	sk.ranks = make([]int, 0, k)
	for j := 1; j <= k; j++ {
		// Target rank ⌈j·n/k⌉ in 1-based order statistics; j=k hits n, so
		// the last anchor is always the sample maximum.
		t := (j*n + k - 1) / k
		v := sorted[t-1]
		// Exact rank of v: advance to the last index holding v. Duplicated
		// anchors collapse onto one cut carrying that rank.
		r := t
		for r < n && sorted[r] == v { //vet:allow floateq -- duplicate run walk over exact stored values
			r++
		}
		if m := len(sk.cuts); m > 0 && sk.cuts[m-1] == v { //vet:allow floateq -- duplicate collapse over exact stored values
			sk.ranks[m-1] = r
			continue
		}
		sk.cuts = append(sk.cuts, v)
		sk.ranks = append(sk.ranks, r)
	}
	return sk
}

// At returns F̃(x), the sketched estimate of P(X ≤ x).
func (s *ECDFSketch) At(x float64) float64 {
	// First anchor with value > x; the previous one carries the rank.
	idx := sort.Search(len(s.cuts), func(i int) bool { return s.cuts[i] > x })
	if idx == 0 {
		return 0
	}
	return float64(s.ranks[idx-1]) / float64(s.n)
}

// Size returns the number of retained anchors — the sketch's memory footprint
// in values, at most ⌈2/ε⌉ regardless of n.
func (s *ECDFSketch) Size() int { return len(s.cuts) }

// ErrorBound returns the sketch's actual worst-case rank error
// (⌈n/k⌉−1)/n — zero when the sample fit entirely (n ≤ k), always strictly
// below the requested eps otherwise. FuzzSketchRankError asserts At never
// deviates from the exact ECDF by more than this.
func (s *ECDFSketch) ErrorBound() float64 {
	k := SketchCutoff(s.eps)
	if s.n <= k {
		return 0
	}
	step := (s.n + k - 1) / k
	return float64(step-1) / float64(s.n)
}
