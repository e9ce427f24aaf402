package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a five-number-plus summary of one sample, enough to render the
// boxplots of the paper's Fig. 2.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Summarize computes the Summary of sample.
func Summarize(sample []float64) (Summary, error) {
	if len(sample) == 0 {
		return Summary{}, fmt.Errorf("stats: summary of empty sample")
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)

	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	var ss float64
	for _, v := range s {
		d := v - mean
		ss += d * d
	}
	variance := 0.0
	if len(s) > 1 {
		variance = ss / float64(len(s)-1)
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		StdDev: math.Sqrt(variance),
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
	}, nil
}

// quantileSorted computes the q-th quantile of an already sorted sample with
// linear interpolation between closest ranks (type-7, the numpy default).
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of sample, or 0 for an empty sample.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	var sum float64
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}
