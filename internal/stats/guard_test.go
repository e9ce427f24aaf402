package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGuardedTestSuppressesMicroShifts(t *testing.T) {
	// Two near-deterministic samples whose atoms moved microscopically:
	// raw KS rejects loudly, the guard declares practical equivalence.
	x := []float64{0.000300, 0.000300, 0.000301, 0.000300, 0.000300, 0.000301}
	y := []float64{0.000299, 0.000300, 0.000299, 0.000299, 0.000300, 0.000299}
	var ks KSTest
	rawP, err := ks.PValue(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if rawP >= 0.05 {
		t.Skipf("fixture no longer triggers raw KS (p=%v); rebuild it", rawP)
	}
	g := GuardedTest{Inner: KSTest{}}
	p, err := g.PValue(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("guard let a micro-shift through (p=%v)", p)
	}
}

func TestGuardedTestPassesRealShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]float64, 19)
	collapsed := make([]float64, 19) // the fault signature: rate -> 0
	appeared := make([]float64, 19)  // error logs from nothing
	for i := range base {
		base[i] = 10 + rng.NormFloat64()
		collapsed[i] = 0
		appeared[i] = 0
	}
	g := GuardedTest{Inner: KSTest{}}
	if p, err := g.PValue(base, collapsed); err != nil || p >= 0.05 {
		t.Errorf("collapse-to-zero not detected (p=%v err=%v)", p, err)
	}
	if p, err := g.PValue(appeared, base); err != nil || p >= 0.05 {
		t.Errorf("appear-from-zero not detected (p=%v err=%v)", p, err)
	}
}

func TestGuardedTestSuppressesVarianceOnlyChange(t *testing.T) {
	// Same mean, half the spread — the 4x-load signature on a ratio
	// metric. The guard must not flag it.
	rng := rand.New(rand.NewSource(2))
	wide := make([]float64, 19)
	narrow := make([]float64, 19)
	for i := range wide {
		wide[i] = 100 + rng.NormFloat64()*10
		narrow[i] = 100 + rng.NormFloat64()*5
	}
	g := GuardedTest{Inner: KSTest{}}
	p, err := g.PValue(wide, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.05 {
		t.Fatalf("variance-only change flagged as anomaly (p=%v)", p)
	}
}

func TestGuardedTestBothZeroEqual(t *testing.T) {
	g := GuardedTest{Inner: KSTest{}}
	zeros := []float64{0, 0, 0, 0}
	p, err := g.PValue(zeros, zeros)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("all-zero samples not equal (p=%v)", p)
	}
}

// infGuardCases are windows and baselines whose trimmed mean is infinite: a
// window of under ten values keeps its ±Inf through the 10% trim, and so
// does a short baseline. The locations are far apart, so the guard must hand
// each case to the inner test instead of declaring the infinite means equal.
func infGuardCases() []struct {
	name             string
	window, baseline []float64
} {
	window := []float64{49.2, 50.1, 50.7, 49.8, 50.3, 49.6, 50.9}
	baseline := []float64{0.9, 1.1, 1.0, 0.8, 1.2, 1.05, 0.95, 1.15, 0.85, 1.0, 0.98, 1.02}
	with := func(s []float64, v float64) []float64 { return append(append([]float64(nil), s...), v) }
	return []struct {
		name             string
		window, baseline []float64
	}{
		{"window+Inf", with(window, math.Inf(1)), baseline},
		{"window-Inf", with(window, math.Inf(-1)), baseline},
		{"baseline+Inf", window, []float64{0.9, 1.1, 1.0, math.Inf(1)}},
		{"baseline-Inf", window, []float64{0.9, 1.1, 1.0, math.Inf(-1)}},
	}
}

// TestGuardedTestInfiniteLocationRunsInner: an infinite trimmed mean is not
// practically equal to anything, so the guard returns the inner test's
// p-value rather than p = 1.
func TestGuardedTestInfiniteLocationRunsInner(t *testing.T) {
	g := GuardedTest{Inner: KSTest{}}
	for _, tc := range infGuardCases() {
		want, err := KSTest{}.PValue(tc.window, tc.baseline)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.PValue(tc.window, tc.baseline)
		if err != nil {
			t.Fatal(err)
		}
		if got == 1 || got != want { //vet:allow floateq -- the guard must return the inner p-value bit for bit
			t.Errorf("%s: guarded p = %v, KS p = %v", tc.name, got, want)
		}
	}
}

func TestGuardedTestValidation(t *testing.T) {
	g := GuardedTest{}
	if _, err := g.PValue([]float64{1}, []float64{1}); err == nil {
		t.Error("nil inner test accepted")
	}
	g = GuardedTest{Inner: KSTest{}}
	if _, err := g.PValue(nil, []float64{1}); err == nil {
		t.Error("empty sample accepted")
	}
	g = GuardedTest{Inner: KSTest{}, RelTol: -1}
	if _, err := g.PValue([]float64{1}, []float64{1}); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestGuardedTestName(t *testing.T) {
	if got := (GuardedTest{Inner: KSTest{}}).Name(); got != "guarded-ks" {
		t.Errorf("Name = %q", got)
	}
	if got := (GuardedTest{}).Name(); got != "guarded-nil" {
		t.Errorf("Name = %q", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	// 10% trim on 10 values drops one from each end.
	s := []float64{-1000, 1, 2, 3, 4, 5, 6, 7, 8, 1000}
	if got := trimmedMean(s, 0.1); got != 4.5 {
		t.Fatalf("trimmedMean = %v, want 4.5 (outliers dropped)", got)
	}
	// Tiny samples keep at least the central value.
	if got := trimmedMean([]float64{7}, 0.4); got != 7 {
		t.Fatalf("single-value trimmed mean = %v", got)
	}
	if got := trimmedMean([]float64{1, 3}, 0.5); got != 2 {
		t.Fatalf("two-value trimmed mean = %v, want 2", got)
	}
}

// Property: the guard is symmetric and scaling both samples by a positive
// constant does not change the decision.
func TestGuardedTestScaleInvarianceProperty(t *testing.T) {
	g := GuardedTest{Inner: KSTest{}}
	rng := rand.New(rand.NewSource(3))
	prop := func(shiftPct uint8, scaleSeed uint8) bool {
		scale := 0.5 + float64(scaleSeed)/32.0
		shift := float64(shiftPct%60) / 100.0
		x := make([]float64, 15)
		y := make([]float64, 15)
		for i := range x {
			x[i] = 10 + rng.NormFloat64()*0.1
			y[i] = 10*(1+shift) + rng.NormFloat64()*0.1
		}
		px, err1 := g.PValue(x, y)
		py, err2 := g.PValue(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		xs := make([]float64, len(x))
		ys := make([]float64, len(y))
		for i := range x {
			xs[i] = x[i] * scale
			ys[i] = y[i] * scale
		}
		ps, err3 := g.PValue(xs, ys)
		if err3 != nil {
			return false
		}
		return (px < 0.05) == (py < 0.05) && (px < 0.05) == (ps < 0.05)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
