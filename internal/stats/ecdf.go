// Package stats provides the statistical machinery the fault-localization
// pipeline depends on: empirical CDFs, the two-sample Kolmogorov–Smirnov test
// used by Algorithms 1 and 2 of the paper, its practical-equivalence guard
// and streaming form, and descriptive summaries used to render figures.
//
// Everything is implemented from scratch on the standard library and is
// deterministic: nothing in it draws random numbers.
package stats

import (
	"fmt"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds the ECDF of sample. The input is copied; an empty sample is
// rejected because F(x) would be undefined.
func NewECDF(sample []float64) (*ECDF, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("stats: ECDF of empty sample")
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// At returns F(x) = P(X <= x), the fraction of the sample at or below x.
func (e *ECDF) At(x float64) float64 {
	// First index with value > x.
	idx := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(idx) / float64(len(e.sorted))
}

// KSDistance computes the Kolmogorov–Smirnov statistic
// D = sup_x |F1(x) - F2(x)| between two ECDFs by walking their merged
// support.
func KSDistance(a, b *ECDF) float64 {
	return ksDistanceSorted(a.sorted, b.sorted)
}

// ksDistanceSorted is KSDistance over raw sorted samples. The hot KS path
// (stats.KSTest.PValue under the learner's per-cell fan-out) calls it with
// pooled scratch buffers, skipping the ECDF allocation entirely.
func ksDistanceSorted(a, b []float64) float64 {
	var d float64
	i, j := 0, 0
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		x := a[i]
		if b[j] < x {
			x = b[j]
		}
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		diff := abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	// After one sample is exhausted the difference can only shrink toward
	// |1 - F(x)| at remaining points; check the tail once.
	diff := abs(float64(i)/na - float64(j)/nb)
	if diff > d {
		d = diff
	}
	return d
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
