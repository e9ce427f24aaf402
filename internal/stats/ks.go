package stats

import (
	"errors"
	"fmt"
	"math"
)

// TwoSampleTest decides whether two samples come from the same distribution.
// Implementations return the p-value for the null hypothesis "x and y are
// equally distributed"; callers reject the null when p < alpha.
type TwoSampleTest interface {
	PValue(x, y []float64) (float64, error)
	Name() string
}

// KSTest is the two-sample Kolmogorov–Smirnov test used by the paper
// (Algorithms 1 and 2 decide F̂_s ≠ F̂_0 with it). The p-value uses the
// asymptotic Kolmogorov distribution with the Stephens small-sample
// correction, which is accurate for the ~19-window samples the pipeline
// produces from ten-minute collection periods.
type KSTest struct{}

var _ TwoSampleTest = KSTest{}

// Name implements TwoSampleTest.
func (KSTest) Name() string { return "ks" }

// errNaN rejects a KS sample holding NaN: NaN has no place in the order
// the statistic walks. ±Inf keep their defined order and are accepted.
var errNaN = errors.New("stats: sample holds NaN")

// Statistic returns the KS statistic D between samples x and y. An empty
// sample, or one holding NaN, is an error.
func (KSTest) Statistic(x, y []float64) (float64, error) {
	ex, err := NewECDF(x)
	if err != nil {
		return 0, fmt.Errorf("stats: ks first sample: %w", err)
	}
	ey, err := NewECDF(y)
	if err != nil {
		return 0, fmt.Errorf("stats: ks second sample: %w", err)
	}
	// The ECDF sorts NaN first.
	if err := nanError(ex.sorted, ey.sorted); err != nil {
		return 0, err
	}
	return KSDistance(ex, ey), nil
}

// PValue implements TwoSampleTest. Unlike Statistic it does not build ECDF
// values: the samples are copied into pooled scratch buffers, sorted there,
// and the buffers are reused across calls — the per-call allocations on the
// learner's (service × metric × intervention) matrix would otherwise
// dominate the parallel pipeline's garbage-collection budget. An empty
// sample, or one holding NaN, is an error.
func (t KSTest) PValue(x, y []float64) (float64, error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("stats: ks first sample: stats: ECDF of empty sample")
	}
	if len(y) == 0 {
		return 0, fmt.Errorf("stats: ks second sample: stats: ECDF of empty sample")
	}
	s := borrowScratch(x, y)
	err := nanError(s.a, s.b)
	var p float64
	if err == nil {
		p = ksPValue(ksDistanceSorted(s.a, s.b), len(x), len(y))
	}
	s.release()
	return p, err
}

// nanError reports which of two sorted, non-empty samples holds NaN, which
// both sorts order first.
func nanError(a, b []float64) error {
	switch {
	case math.IsNaN(a[0]):
		return fmt.Errorf("stats: ks first sample: %w", errNaN)
	case math.IsNaN(b[0]):
		return fmt.Errorf("stats: ks second sample: %w", errNaN)
	}
	return nil
}

// ksPValue turns the statistic d between samples of sizes sizeA and sizeB
// into the KS p-value: the asymptotic Kolmogorov tail at the
// Stephens-corrected effective size. It is the single arithmetic path of
// KSTest.PValue, IncrementalKS and the stream detector, so equal statistics
// give bit-identical p-values.
func ksPValue(d float64, sizeA, sizeB int) float64 {
	n := float64(sizeA)
	m := float64(sizeB)
	ne := n * m / (n + m)
	sq := math.Sqrt(ne)
	lambda := (sq + 0.12 + 0.11/sq) * d
	return kolmogorovQ(lambda)
}

// kolmogorovQ evaluates Q_KS(λ) = 2 Σ_{j≥1} (-1)^{j-1} exp(-2 j² λ²), the
// complementary CDF of the Kolmogorov distribution. Q(0) = 1 and Q(∞) = 0.
func kolmogorovQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	const (
		eps1    = 1e-6  // term ratio convergence
		eps2    = 1e-12 // absolute term convergence
		maxIter = 200
	)
	a2 := -2 * lambda * lambda
	sum := 0.0
	termPrev := 0.0
	sign := 1.0
	for j := 1; j <= maxIter; j++ {
		term := sign * math.Exp(a2*float64(j)*float64(j))
		sum += term
		at := math.Abs(term)
		if at <= eps1*termPrev || at <= eps2*sum {
			p := 2 * sum
			switch {
			case p < 0:
				return 0
			case p > 1:
				return 1
			default:
				return p
			}
		}
		termPrev = at
		sign = -sign
	}
	// Failed to converge: λ is tiny, distributions are indistinguishable.
	return 1
}

// CriticalValue returns the approximate critical D above which the KS test
// rejects at significance alpha for sample sizes n and m, using the
// large-sample c(α)·sqrt((n+m)/(n·m)) formula.
func CriticalValue(alpha float64, n, m int) (float64, error) {
	if n <= 0 || m <= 0 {
		return 0, fmt.Errorf("stats: critical value needs positive sample sizes, got n=%d m=%d", n, m)
	}
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("stats: alpha must be in (0,1), got %v", alpha)
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	fn, fm := float64(n), float64(m)
	return c * math.Sqrt((fn+fm)/(fn*fm)), nil
}

// Differs is a convenience helper: it reports whether test rejects the null
// hypothesis that x and y are equally distributed at level alpha.
func Differs(test TwoSampleTest, x, y []float64, alpha float64) (bool, error) {
	if alpha <= 0 || alpha >= 1 {
		return false, fmt.Errorf("stats: alpha must be in (0,1), got %v", alpha)
	}
	p, err := test.PValue(x, y)
	if err != nil {
		return false, err
	}
	return p < alpha, nil
}
