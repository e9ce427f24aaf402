package stats

import "fmt"

// DefaultRelTol is the default practical-equivalence tolerance of
// GuardedTest: samples whose trimmed means differ by less than 20% are
// treated as operationally identical.
const DefaultRelTol = 0.20

// DefaultTrim is the fraction trimmed from each tail when computing the
// robust location estimate.
const DefaultTrim = 0.1

// GuardedTest is the KS test behind a practical-equivalence guard: when the
// robust locations (trimmed means) of the two samples are within a relative
// tolerance of each other, the samples are declared equal (p = 1) without
// consulting the KS test. It is the default test of the batch learner and
// localizer, and KSBaselines.GuardedPValue is its streaming form.
//
// Rationale: the KS test measures *statistical* significance only. Two kinds
// of operationally meaningless differences plague black-box service metrics:
//
//   - near-deterministic series (a store's fixed per-op cost, a ratio whose
//     numerator and denominator move in lockstep), where a microscopic
//     displacement of the distribution's atoms yields a huge KS statistic;
//   - pure variance scaling under load changes (Poisson counts at 4× load
//     have half the relative spread), which shifts no location at all.
//
// Production anomaly detection always pairs significance with a minimum
// effect size; this wrapper is that guard. Faults of the paper's magnitude —
// rates collapsing to zero, error logs appearing from nothing — change the
// trimmed mean by far more than any reasonable tolerance.
type GuardedTest struct {
	// RelTol is the relative location-difference tolerance. Zero means
	// DefaultRelTol.
	RelTol float64
}

// PValue returns 1 when x and y are practically equal and KSTest.PValue of
// the pair otherwise. Both samples are sorted once into one pooled scratch:
// the guard's trimmed means and the KS distance read the same sorted copies,
// so the guard adds no allocations to the hot test path. The guard decides
// first: a pair whose NaNs the trimming leaves out of both trimmed means can
// be declared equal before the KS test would refuse the NaN.
func (g GuardedTest) PValue(x, y []float64) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, fmt.Errorf("stats: guarded test needs non-empty samples (|x|=%d |y|=%d)", len(x), len(y))
	}
	tol := g.RelTol
	if tol == 0 {
		tol = DefaultRelTol
	}
	if tol < 0 {
		return 0, fmt.Errorf("stats: negative relative tolerance %v", tol)
	}
	s := borrowScratch(x, y)
	defer s.release()
	if sameLocation(trimmedMeanSorted(s.a, DefaultTrim), trimmedMeanSorted(s.b, DefaultTrim), tol) {
		return 1, nil
	}
	return sortedPValue(s.a, s.b)
}

// sameLocation is the guard's location decision on two trimmed means, shared
// by GuardedTest and KSBaselines.GuardedPValue: they differ by at most tol
// relative to the larger magnitude, or are both zero. A non-finite mean (a
// sample holding ±Inf or NaN) is never equal to anything, so the KS test
// decides.
func sameLocation(tx, ty, tol float64) bool {
	if !isFinite(tx) || !isFinite(ty) {
		return false
	}
	scale := max(abs(tx), abs(ty))
	return scale == 0 || abs(tx-ty) <= tol*scale
}

// trimmedMeanSorted averages the sorted sample after dropping the trim
// fraction from each tail (at least keeping one central value).
func trimmedMeanSorted(s []float64, trim float64) float64 {
	drop := int(float64(len(s)) * trim)
	if 2*drop >= len(s) {
		drop = (len(s) - 1) / 2
	}
	s = s[drop : len(s)-drop]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
