package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// probePoints returns the interesting query locations for a sample: every
// value, midpoints between neighbours, and points beyond both ends.
func probePoints(sample []float64) []float64 {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	pts := []float64{s[0] - 1, s[len(s)-1] + 1}
	for i, v := range s {
		pts = append(pts, v)
		if i+1 < len(s) {
			pts = append(pts, v+(s[i+1]-v)/2)
		}
	}
	return pts
}

// checkRankError asserts the sketch invariants against the exact ECDF:
// one-sided (F̃ ≤ F) and within ErrorBound, which itself must sit under eps.
func checkRankError(t *testing.T, sample []float64, eps float64) {
	t.Helper()
	sk, err := NewECDFSketch(sample, eps)
	if err != nil {
		t.Fatalf("NewECDFSketch: %v", err)
	}
	ex, err := NewECDF(sample)
	if err != nil {
		t.Fatalf("NewECDF: %v", err)
	}
	bound := sk.ErrorBound()
	if bound >= eps {
		t.Fatalf("ErrorBound %v not strictly below eps %v (n=%d)", bound, eps, len(sample))
	}
	if k := SketchCutoff(eps); sk.Size() > k {
		t.Fatalf("sketch keeps %d anchors, budget is %d", sk.Size(), k)
	}
	for _, x := range probePoints(sample) {
		f, fs := ex.At(x), sk.At(x)
		if fs > f+1e-15 {
			t.Fatalf("At(%v): sketch %v above exact %v — estimate must be one-sided", x, fs, f)
		}
		if f-fs > bound+1e-15 {
			t.Fatalf("At(%v): exact %v, sketch %v, gap %v exceeds bound %v (n=%d eps=%v)",
				x, f, fs, f-fs, bound, len(sample), eps)
		}
	}
}

func TestSketchRankErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 39, 40, 41, 64, 100, 256, 1000} {
		for _, eps := range []float64{0.01, 0.05, 0.1, 0.3} {
			uniform := make([]float64, n)
			heavy := make([]float64, n)
			ties := make([]float64, n)
			for i := range uniform {
				uniform[i] = rng.Float64() * 100
				heavy[i] = math.Exp(rng.NormFloat64() * 3)
				ties[i] = float64(rng.Intn(5))
			}
			for name, sample := range map[string][]float64{"uniform": uniform, "heavy": heavy, "ties": ties} {
				t.Run("", func(t *testing.T) {
					_ = name
					checkRankError(t, sample, eps)
				})
			}
		}
	}
}

func TestSketchExactWhenSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eps := 0.05
	k := SketchCutoff(eps)
	if k != 40 {
		t.Fatalf("SketchCutoff(0.05) = %d, want 40", k)
	}
	for _, n := range []int{1, 5, 19, 24, 40} {
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.NormFloat64()
		}
		sk, err := NewECDFSketch(sample, eps)
		if err != nil {
			t.Fatal(err)
		}
		if sk.ErrorBound() != 0 {
			t.Fatalf("n=%d <= k=%d but ErrorBound = %v, want 0", n, k, sk.ErrorBound())
		}
		ex, _ := NewECDF(sample)
		for _, x := range probePoints(sample) {
			if got, want := sk.At(x), ex.At(x); got != want { //vet:allow floateq -- lossless regime must be bit-identical
				t.Fatalf("n=%d At(%v): sketch %v != exact %v", n, x, got, want)
			}
		}
	}
}

func TestSketchValidation(t *testing.T) {
	if _, err := NewECDFSketch(nil, 0.05); err == nil {
		t.Fatal("empty sample accepted")
	}
	for _, eps := range []float64{0, -0.1, 1, 2} {
		if _, err := NewECDFSketch([]float64{1, 2}, eps); err == nil {
			t.Fatalf("eps=%v accepted", eps)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewECDFSketch([]float64{1, bad}, 0.05); err == nil {
			t.Fatalf("non-finite sample value %v accepted", bad)
		}
	}
	if SketchCutoff(0) != 0 || SketchCutoff(1) != 0 {
		t.Fatal("SketchCutoff outside (0,1) should be 0")
	}
	if got := SketchCutoff(0.01); got != 200 {
		t.Fatalf("SketchCutoff(0.01) = %d, want 200", got)
	}
}

// FuzzSketchRankError fuzzes samples of arbitrary size and error budget and
// asserts the sketch's advertised bound holds pointwise against the exact
// ECDF.
func FuzzSketchRankError(f *testing.F) {
	f.Add(int64(1), 10, 50)
	f.Add(int64(2), 1, 10)
	f.Add(int64(3), 500, 900)
	f.Add(int64(4), 41, 49)
	f.Add(int64(5), 200, 5)
	f.Fuzz(func(t *testing.T, seed int64, n int, epsMilli int) {
		if n < 1 || n > 4096 {
			t.Skip()
		}
		eps := float64(epsMilli) / 1000
		if eps <= 0 || eps >= 1 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		sample := make([]float64, n)
		for i := range sample {
			switch rng.Intn(3) {
			case 0:
				sample[i] = rng.NormFloat64() * 10
			case 1:
				sample[i] = float64(rng.Intn(4)) // dense ties
			default:
				sample[i] = math.Exp(rng.NormFloat64() * 2)
			}
		}
		checkRankError(t, sample, eps)
	})
}
