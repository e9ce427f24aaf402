package stats

import "fmt"

// DefaultRelTol is the default practical-equivalence tolerance of
// GuardedTest: samples whose trimmed means differ by less than 20% are
// treated as operationally identical.
const DefaultRelTol = 0.20

// DefaultTrim is the fraction trimmed from each tail when computing the
// robust location estimate.
const DefaultTrim = 0.1

// GuardedTest wraps a two-sample test with a practical-equivalence guard:
// when the robust locations (trimmed means) of the two samples are within a
// relative tolerance of each other, the samples are declared equal (p = 1)
// without consulting the inner test.
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
	// Inner is the significance test consulted when the guard does not
	// declare practical equivalence.
	Inner TwoSampleTest
	// RelTol is the relative location-difference tolerance. Zero means
	// DefaultRelTol.
	RelTol float64
}

var _ TwoSampleTest = GuardedTest{}

// Name implements TwoSampleTest.
func (g GuardedTest) Name() string {
	inner := "nil"
	if g.Inner != nil {
		inner = g.Inner.Name()
	}
	return "guarded-" + inner
}

// PValue implements TwoSampleTest.
func (g GuardedTest) PValue(x, y []float64) (float64, error) {
	if g.Inner == nil {
		return 0, fmt.Errorf("stats: guarded test has no inner test")
	}
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
	if practicallyEqual(x, y, tol) {
		return 1, nil
	}
	return g.Inner.PValue(x, y)
}

// practicallyEqual reports whether the trimmed means of x and y differ by at
// most tol relative to the larger magnitude. Two all-zero samples are equal;
// zero-versus-nonzero always differs (relative difference 1), and so does a
// non-finite trimmed mean. Both samples are sorted into one pooled scratch,
// so the guard adds no allocations to the hot test path.
func practicallyEqual(x, y []float64, tol float64) bool {
	s := borrowScratch(x, y)
	eq := sameLocation(trimmedMeanSorted(s.a, DefaultTrim), trimmedMeanSorted(s.b, DefaultTrim), tol)
	s.release()
	return eq
}

// sameLocation is the guard's location decision on two trimmed means, shared
// by GuardedTest and KSBaselines.GuardedPValue: they differ by at most tol
// relative to the larger magnitude, or are both zero. A non-finite mean (a
// sample holding ±Inf or NaN) is never equal to anything, so the inner test
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
