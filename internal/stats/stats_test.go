package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestECDFBasics(t *testing.T) {
	e, err := NewECDF([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 1.0 / 3},
		{1.5, 1.0 / 3},
		{2, 2.0 / 3},
		{3, 1},
		{99, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("F(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestECDFEmptySample(t *testing.T) {
	if _, err := NewECDF(nil); err == nil {
		t.Fatal("ECDF accepted empty sample")
	}
}

func TestECDFCopiesInput(t *testing.T) {
	in := []float64{5, 1, 3}
	e, err := NewECDF(in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = -100
	if e.At(0) != 0 {
		t.Fatal("ECDF aliases caller's slice")
	}
}

func TestECDFProperties(t *testing.T) {
	prop := func(raw []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		e, err := NewECDF(sample)
		if err != nil {
			return false
		}
		// Monotone, in [0,1], hits 0 before min and 1 at max.
		sorted := make([]float64, len(sample))
		copy(sorted, sample)
		sort.Float64s(sorted)
		prev := 0.0
		for _, x := range sorted {
			fx := e.At(x)
			if fx < prev || fx < 0 || fx > 1 {
				return false
			}
			prev = fx
		}
		below := math.Nextafter(sorted[0], math.Inf(-1))
		return e.At(sorted[len(sorted)-1]) == 1 && e.At(below) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKSDistanceIdenticalSamples(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	var ks KSTest
	d, err := ks.Statistic(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("KS distance of identical samples = %v, want 0", d)
	}
}

func TestKSDistanceDisjointSamples(t *testing.T) {
	var ks KSTest
	d, err := ks.Statistic([]float64{1, 2, 3}, []float64{10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("KS distance of disjoint samples = %v, want 1", d)
	}
}

func TestKSKnownValue(t *testing.T) {
	// x = {1,2,3,4}, y = {3,4,5,6}: max gap is at x<=2 where F1=0.5, F2=0.
	var ks KSTest
	d, err := ks.Statistic([]float64{1, 2, 3, 4}, []float64{3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("KS distance = %v, want 0.5", d)
	}
}

func TestKSPValueSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rejections := 0
	const trials = 100
	var ks KSTest
	for i := 0; i < trials; i++ {
		x := make([]float64, 30)
		y := make([]float64, 30)
		for j := range x {
			x[j] = rng.NormFloat64()
			y[j] = rng.NormFloat64()
		}
		reject, err := Differs(ks, x, y, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if reject {
			rejections++
		}
	}
	// Expected false-positive rate ~5%; allow generous slack.
	if rejections > 15 {
		t.Fatalf("KS rejected %d/%d identical-distribution pairs at alpha=0.05", rejections, trials)
	}
}

func TestKSPValueShiftedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	detected := 0
	const trials = 50
	var ks KSTest
	for i := 0; i < trials; i++ {
		x := make([]float64, 25)
		y := make([]float64, 25)
		for j := range x {
			x[j] = rng.NormFloat64()
			y[j] = rng.NormFloat64() + 2.0 // two-sigma shift
		}
		reject, err := Differs(ks, x, y, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if reject {
			detected++
		}
	}
	if detected < 45 {
		t.Fatalf("KS detected only %d/%d two-sigma shifts", detected, trials)
	}
}

func TestKolmogorovQBoundaries(t *testing.T) {
	if got := kolmogorovQ(0); got != 1 {
		t.Errorf("Q(0) = %v, want 1", got)
	}
	if got := kolmogorovQ(-1); got != 1 {
		t.Errorf("Q(-1) = %v, want 1", got)
	}
	if got := kolmogorovQ(10); got > 1e-10 {
		t.Errorf("Q(10) = %v, want ~0", got)
	}
	// Known value: Q(1.0) ≈ 0.27.
	if got := kolmogorovQ(1.0); math.Abs(got-0.27) > 0.01 {
		t.Errorf("Q(1.0) = %v, want ≈0.27", got)
	}
	// Monotone decreasing.
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		q := kolmogorovQ(l)
		if q > prev+1e-12 {
			t.Fatalf("Q not monotone at λ=%v: %v > %v", l, q, prev)
		}
		prev = q
	}
}

func TestKSEmptySampleRejected(t *testing.T) {
	var ks KSTest
	if _, err := ks.PValue(nil, []float64{1}); err == nil {
		t.Fatal("KS accepted empty first sample")
	}
	if _, err := ks.PValue([]float64{1}, nil); err == nil {
		t.Fatal("KS accepted empty second sample")
	}
}

// TestKSRejectsNaN: a NaN in either sample is an error, not a hang. The
// merge walk never moves past a NaN sorted first in the window, so the
// checks run on a goroutine under a deadline.
func TestKSRejectsNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		x, y []float64
	}{
		{"first", []float64{nan, 1}, []float64{1, 2}},
		{"second", []float64{1, 2}, []float64{3, nan}},
		{"both", []float64{nan}, []float64{nan}},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ks KSTest
		for _, c := range cases {
			if p, err := ks.PValue(c.x, c.y); err == nil {
				t.Errorf("%s: PValue = %v, want an error", c.name, p)
			}
			if d, err := ks.Statistic(c.x, c.y); err == nil {
				t.Errorf("%s: Statistic = %v, want an error", c.name, d)
			}
		}
		// ±Inf keep their order and are accepted.
		inf := []float64{math.Inf(-1), 0, math.Inf(1)}
		if _, err := ks.PValue(inf, []float64{1, 2}); err != nil {
			t.Errorf("PValue with ±Inf: %v", err)
		}
		if _, err := ks.Statistic([]float64{1, 2}, inf); err != nil {
			t.Errorf("Statistic with ±Inf: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("KSTest did not return on a NaN sample")
	}
}

func TestDiffersValidatesAlpha(t *testing.T) {
	var ks KSTest
	for _, alpha := range []float64{0, 1, -0.5, 2} {
		if _, err := Differs(ks, []float64{1}, []float64{2}, alpha); err == nil {
			t.Fatalf("Differs accepted alpha=%v", alpha)
		}
	}
}

func TestCriticalValue(t *testing.T) {
	// Classic two-sample critical value at alpha=0.05, n=m=20:
	// 1.358*sqrt(2/20) ≈ 0.4294.
	cv, err := CriticalValue(0.05, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cv-0.4294) > 0.001 {
		t.Fatalf("critical value = %v, want ≈0.4294", cv)
	}
	if _, err := CriticalValue(0.05, 0, 20); err == nil {
		t.Fatal("CriticalValue accepted n=0")
	}
	if _, err := CriticalValue(1.5, 20, 20); err == nil {
		t.Fatal("CriticalValue accepted alpha out of range")
	}
}

// Property: KS p-value and critical-value rejection broadly agree.
func TestKSDecisionConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ks KSTest
	for trial := 0; trial < 100; trial++ {
		n := 10 + rng.Intn(30)
		m := 10 + rng.Intn(30)
		shift := float64(rng.Intn(4))
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64() + shift
		}
		d, err := ks.Statistic(x, y)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ks.PValue(x, y)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := CriticalValue(0.05, n, m)
		if err != nil {
			t.Fatal(err)
		}
		// The two decision procedures may disagree near the boundary;
		// require agreement when clearly inside/outside.
		if d > cv*1.3 && p > 0.05 {
			t.Fatalf("D=%v far above critical %v but p=%v", d, cv, p)
		}
		if d < cv*0.7 && p < 0.05 {
			t.Fatalf("D=%v far below critical %v but p=%v", d, cv, p)
		}
	}
}

func TestPermutationTestAgreesWithKS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	same := make([]float64, 20)
	shifted := make([]float64, 20)
	base := make([]float64, 20)
	for i := range base {
		base[i] = rng.NormFloat64()
		same[i] = rng.NormFloat64()
		shifted[i] = rng.NormFloat64() + 3
	}
	perm := PermutationTest{Rounds: 300, Seed: 7}
	pSame, err := perm.PValue(base, same)
	if err != nil {
		t.Fatal(err)
	}
	pShift, err := perm.PValue(base, shifted)
	if err != nil {
		t.Fatal(err)
	}
	if pSame < 0.05 {
		t.Errorf("permutation test rejected identical distributions (p=%v)", pSame)
	}
	if pShift > 0.05 {
		t.Errorf("permutation test missed a 3-sigma shift (p=%v)", pShift)
	}
}

func TestPermutationTestDeterministic(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 3, 4, 5, 6}
	perm := PermutationTest{Rounds: 100, Seed: 42}
	p1, err := perm.PValue(x, y)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := perm.PValue(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("same seed produced p=%v then p=%v", p1, p2)
	}
}

func TestPermutationTestEmptySamples(t *testing.T) {
	perm := PermutationTest{}
	if _, err := perm.PValue(nil, []float64{1}); err == nil {
		t.Fatal("permutation test accepted empty sample")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary basics wrong: %+v", s)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	// Sample stddev of this classic set is ~2.138.
	if math.Abs(s.StdDev-2.138) > 0.01 {
		t.Errorf("stddev = %v, want ≈2.138", s.StdDev)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Errorf("median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Fatal("Summarize accepted empty sample")
	}
}

func TestSummarizeSingleValue(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.StdDev != 0 {
		t.Fatalf("single-value summary wrong: %+v", s)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if r, err := PearsonCorrelation(x, yPos); err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive correlation = %v (err %v), want 1", r, err)
	}
	if r, err := PearsonCorrelation(x, yNeg); err != nil || math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative correlation = %v (err %v), want -1", r, err)
	}
	if r, err := PearsonCorrelation(x, []float64{3, 3, 3, 3, 3}); err != nil || r != 0 {
		t.Fatalf("constant series correlation = %v (err %v), want 0", r, err)
	}
	if _, err := PearsonCorrelation(x, []float64{1}); err == nil {
		t.Fatal("correlation accepted mismatched lengths")
	}
	if _, err := PearsonCorrelation([]float64{1}, []float64{1}); err == nil {
		t.Fatal("correlation accepted single pair")
	}
}

func TestQuantileSortedInterpolation(t *testing.T) {
	s := []float64{0, 10}
	if got := quantileSorted(s, 0.5); got != 5 {
		t.Fatalf("interpolated median = %v, want 5", got)
	}
	if got := quantileSorted([]float64{3}, 0.9); got != 3 {
		t.Fatalf("single-element quantile = %v, want 3", got)
	}
}

// Property: KS distance is symmetric and within [0, 1].
func TestKSSymmetryProperty(t *testing.T) {
	prop := func(xr, yr []float64) bool {
		clean := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					out = append(out, v)
				}
			}
			return out
		}
		x, y := clean(xr), clean(yr)
		if len(x) == 0 || len(y) == 0 {
			return true
		}
		var ks KSTest
		dxy, err1 := ks.Statistic(x, y)
		dyx, err2 := ks.Statistic(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(dxy-dyx) < 1e-12 && dxy >= 0 && dxy <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
