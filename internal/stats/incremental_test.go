package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameValues compares two float slices by bit pattern, so NaN entries
// compare equal to themselves.
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// materialFinite drops non-finite entries, preserving order — the same
// filtering the tolerant detection path applies before testing.
func materialFinite(s []float64) []float64 {
	out := make([]float64, 0, len(s))
	for _, v := range s {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}

func TestIncrementalKSValidation(t *testing.T) {
	if _, err := NewIncrementalKS(nil, 8); err == nil {
		t.Fatal("empty baseline accepted")
	}
	if _, err := NewIncrementalKS([]float64{1, 2}, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	k, err := NewIncrementalKS([]float64{3, 1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.D(); err == nil {
		t.Fatal("D on empty window should error")
	}
	if _, err := k.PValue(); err == nil {
		t.Fatal("PValue on empty window should error")
	}
	if _, err := k.GuardedPValue(0); err == nil {
		t.Fatal("GuardedPValue on empty window should error")
	}
	k.Push(1)
	if _, err := k.GuardedPValue(-0.5); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

// TestIncrementalKSMatchesBatch drives a long push sequence through a small
// window and checks, after every push, that the incremental statistics equal
// the batch tests run on the materialized window.
func TestIncrementalKSMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	baseline := make([]float64, 19)
	for i := range baseline {
		baseline[i] = rng.NormFloat64()
	}
	const window = 9
	k, err := NewIncrementalKS(baseline, window)
	if err != nil {
		t.Fatal(err)
	}
	var pushed []float64
	for step := 0; step < 200; step++ {
		v := rng.NormFloat64() * 2
		switch step % 17 {
		case 5:
			v = math.NaN()
		case 11:
			v = math.Inf(1)
		}
		k.Push(v)
		pushed = append(pushed, v)
		raw := pushed
		if len(raw) > window {
			raw = raw[len(raw)-window:]
		}
		if got := k.Window(); !sameValues(got, raw) {
			t.Fatalf("step %d: window %v, want %v", step, got, raw)
		}
		finite := materialFinite(raw)
		if k.Len() != len(finite) {
			t.Fatalf("step %d: Len %d, want %d", step, k.Len(), len(finite))
		}
		if len(finite) == 0 {
			continue
		}
		wantD, err := (KSTest{}).Statistic(finite, baseline)
		if err != nil {
			t.Fatal(err)
		}
		gotD, err := k.D()
		if err != nil {
			t.Fatal(err)
		}
		if gotD != wantD { //vet:allow floateq -- the equivalence contract is bitwise
			t.Fatalf("step %d: D=%v, batch %v", step, gotD, wantD)
		}
		wantP, err := (KSTest{}).PValue(finite, baseline)
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := k.PValue()
		if err != nil {
			t.Fatal(err)
		}
		if gotP != wantP { //vet:allow floateq -- the equivalence contract is bitwise
			t.Fatalf("step %d: p=%v, batch %v", step, gotP, wantP)
		}
		wantG, err := (GuardedTest{Inner: KSTest{}}).PValue(finite, baseline)
		if err != nil {
			t.Fatal(err)
		}
		gotG, err := k.GuardedPValue(0)
		if err != nil {
			t.Fatal(err)
		}
		if gotG != wantG { //vet:allow floateq -- the equivalence contract is bitwise
			t.Fatalf("step %d: guarded p=%v, batch %v", step, gotG, wantG)
		}
	}
}

// TestIncrementalKSGuardTolerance checks the custom-tolerance guarded path
// against the batch guard.
func TestIncrementalKSGuardTolerance(t *testing.T) {
	baseline := []float64{10, 10.5, 11, 10.2, 10.8, 10.1, 10.9, 10.4}
	k, err := NewIncrementalKS(baseline, 6)
	if err != nil {
		t.Fatal(err)
	}
	stream := []float64{12, 12.5, 11.8, 12.2, 12.1, 12.4}
	for _, v := range stream {
		k.Push(v)
	}
	for _, tol := range []float64{0.05, 0.20, 0.50} {
		want, err := (GuardedTest{Inner: KSTest{}, RelTol: tol}).PValue(stream, baseline)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.GuardedPValue(tol)
		if err != nil {
			t.Fatal(err)
		}
		if got != want { //vet:allow floateq -- the equivalence contract is bitwise
			t.Fatalf("tol %v: guarded p=%v, batch %v", tol, got, want)
		}
	}
}

// FuzzIncrementalKS cross-checks the incremental D-statistic and p-values
// against stats.KS on the same data for fuzzer-chosen baselines, window
// capacities and push sequences.
func FuzzIncrementalKS(f *testing.F) {
	f.Add(int64(1), uint8(19), uint8(8), uint16(40))
	f.Add(int64(42), uint8(3), uint8(1), uint16(7))
	f.Add(int64(99), uint8(64), uint8(31), uint16(200))
	f.Fuzz(func(t *testing.T, seed int64, baseN, window uint8, steps uint16) {
		bn := int(baseN)%64 + 1
		w := int(window)%32 + 1
		n := int(steps) % 300
		rng := rand.New(rand.NewSource(seed))
		baseline := make([]float64, bn)
		for i := range baseline {
			baseline[i] = rng.NormFloat64() * 10
		}
		k, err := NewIncrementalKS(baseline, w)
		if err != nil {
			t.Fatal(err)
		}
		var pushed []float64
		for step := 0; step < n; step++ {
			var v float64
			switch rng.Intn(10) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				// Duplicate an already-pushed value to stress tied
				// insert/evict in the order-statistics index.
				if len(pushed) > 0 {
					v = pushed[rng.Intn(len(pushed))]
				}
			default:
				v = rng.NormFloat64() * 5
			}
			k.Push(v)
			pushed = append(pushed, v)
			raw := pushed
			if len(raw) > w {
				raw = raw[len(raw)-w:]
			}
			finite := materialFinite(raw)
			if k.Len() != len(finite) {
				t.Fatalf("step %d: Len %d, want %d", step, k.Len(), len(finite))
			}
			if len(finite) == 0 {
				continue
			}
			wantD, err := (KSTest{}).Statistic(finite, baseline)
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := k.D()
			if err != nil {
				t.Fatal(err)
			}
			if gotD != wantD { //vet:allow floateq -- the equivalence contract is bitwise
				t.Fatalf("step %d: D=%v, batch %v", step, gotD, wantD)
			}
			wantP, err := (KSTest{}).PValue(finite, baseline)
			if err != nil {
				t.Fatal(err)
			}
			gotP, err := k.PValue()
			if err != nil {
				t.Fatal(err)
			}
			if gotP != wantP { //vet:allow floateq -- the equivalence contract is bitwise
				t.Fatalf("step %d: p=%v, batch %v", step, gotP, wantP)
			}
			wantG, err := (GuardedTest{Inner: KSTest{}}).PValue(finite, baseline)
			if err != nil {
				t.Fatal(err)
			}
			gotG, err := k.GuardedPValue(0)
			if err != nil {
				t.Fatal(err)
			}
			if gotG != wantG { //vet:allow floateq -- the equivalence contract is bitwise
				t.Fatalf("step %d: guarded p=%v, batch %v", step, gotG, wantG)
			}
		}
	})
}

// fuzzFloats decodes fuzzer bytes into a sample. With grid zero every 8
// bytes are one float64 bit pattern, NaN read as 0. Otherwise every byte is
// one value on the integer grid [-grid/2, grid/2), which forces ties, except
// for the top three bytes: +Inf, -Inf and -0.
func fuzzFloats(data []byte, grid uint8) []float64 {
	var out []float64
	if grid == 0 {
		for ; len(data) >= 8; data = data[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(v) {
				v = 0
			}
			out = append(out, v)
		}
		return out
	}
	for _, c := range data {
		switch c {
		case 255:
			out = append(out, math.Inf(1))
		case 254:
			out = append(out, math.Inf(-1))
		case 253:
			out = append(out, math.Copysign(0, -1))
		default:
			out = append(out, float64(int(c)%int(grid)-int(grid)/2))
		}
	}
	return out
}

// FuzzKSDistanceUnsorted holds the one-pass kernel the exact baselines use
// bit for bit to the sorted merge walk, ksDistanceSorted(window,
// sort(baseline)), and checks it leaves the baseline as it was.
func FuzzKSDistanceUnsorted(f *testing.F) {
	grid := func(vs ...byte) []byte { return vs }
	long := make([]byte, 200)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(grid(3), grid(1, 2, 3, 3, 4), uint8(8))                    // window of one, tied with the baseline
	f.Add(grid(1, 1, 1, 2), grid(1, 1, 2, 2, 2, 0), uint8(4))        // ties inside and across the samples
	f.Add(grid(253, 4, 5), grid(4, 253, 253, 6), uint8(8))           // -0 against +0
	f.Add(grid(2, 5, 9), grid(255, 254, 3, 255, 254, 9), uint8(16))  // ±Inf baseline values
	f.Add(grid(254, 0, 255), grid(254, 255, 1, 2), uint8(6))         // ±Inf in the window
	f.Add(grid(0, 1, 2, 3), grid(10, 11, 12, 13, 14, 15), uint8(32)) // disjoint: every value on the fast path
	f.Add(long[:100], long, uint8(50))                               // a window over the stack buckets
	f.Add(long[:40], long[100:], uint8(0))                           // raw bit patterns
	f.Add(grid(7), grid(), uint8(8))                                 // empty baseline
	f.Fuzz(func(t *testing.T, window, baseline []byte, g uint8) {
		a := fuzzFloats(window, g)
		b := fuzzFloats(baseline, g)
		if len(a) == 0 {
			return
		}
		sortFloat64s(a)
		orig := append([]float64(nil), b...)
		sorted := append([]float64(nil), b...)
		sortFloat64s(sorted)
		want := ksDistanceSorted(a, sorted)
		got := ksDistanceUnsorted(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("D = %v, sorted walk %v (window %v, baseline %v)", got, want, a, orig)
		}
		if !sameValues(b, orig) {
			t.Fatalf("kernel modified the baseline: %v, was %v", b, orig)
		}
	})
}

// TestKSBaselinesReadInPlace: an exact set keeps a reference to each
// baseline, not a copy, and neither building it nor testing against it
// reorders or modifies the caller's series. NewIncrementalKS, by contrast,
// owns a copy.
func TestKSBaselinesReadInPlace(t *testing.T) {
	series := []float64{5, 3, 9, 1, 7, 3}
	orig := append([]float64(nil), series...)
	b := NewKSBaselines(1)
	if err := b.Add(series); err != nil {
		t.Fatal(err)
	}
	if &b.series[0][0] != &series[0] {
		t.Fatal("exact baseline was copied")
	}
	window := []float64{10, 11, 12}
	want, err := (GuardedTest{Inner: KSTest{}}).PValue(window, series)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.GuardedPValue(0, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want { //vet:allow floateq -- the equivalence contract is bitwise
		t.Fatalf("guarded p = %v, batch %v", got, want)
	}
	if !sameValues(series, orig) {
		t.Fatalf("baseline changed to %v, was %v", series, orig)
	}

	// NewIncrementalKS keeps its own copy, so the caller may reuse its slice.
	k, err := NewIncrementalKS(series, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range window {
		k.Push(v)
	}
	before, err := k.D()
	if err != nil {
		t.Fatal(err)
	}
	for i := range series {
		series[i] = 100
	}
	after, err := k.D()
	if err != nil {
		t.Fatal(err)
	}
	if after != before { //vet:allow floateq -- the state must not see the caller's writes at all
		t.Fatalf("D moved from %v to %v when the caller reused its baseline slice", before, after)
	}
}

// TestKSBaselinesRejectNaN: a baseline set refuses a NaN baseline value,
// which the KS order cannot place, and keeps ±Inf.
func TestKSBaselinesRejectNaN(t *testing.T) {
	set := NewKSBaselines(2)
	if err := set.Add([]float64{1, math.NaN(), 2}); err == nil {
		t.Fatal("baseline accepted NaN")
	}
	if err := set.Add([]float64{math.Inf(-1), 1, math.Inf(1)}); err != nil {
		t.Fatalf("baseline refused ±Inf: %v", err)
	}
	if _, err := NewIncrementalKS([]float64{1, math.NaN()}, 4); err == nil {
		t.Fatal("NewIncrementalKS accepted a NaN baseline")
	}
}

// TestKSBaselinesInfiniteLocationRunsKS: with an infinite trimmed mean on
// either side, the cached-mean guard hands the pair to the KS test, exactly
// as GuardedTest does.
func TestKSBaselinesInfiniteLocationRunsKS(t *testing.T) {
	for _, tc := range infGuardCases() {
		set := NewKSBaselines(1)
		if err := set.Add(tc.baseline); err != nil {
			t.Fatal(err)
		}
		window := append([]float64(nil), tc.window...)
		sortFloat64s(window)
		want, err := KSTest{}.PValue(window, tc.baseline)
		if err != nil {
			t.Fatal(err)
		}
		got, err := set.GuardedPValue(0, window, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got == 1 || got != want { //vet:allow floateq -- the guard must return the KS p-value bit for bit
			t.Errorf("%s: guarded p = %v, KS p = %v", tc.name, got, want)
		}
	}
}

// BenchmarkKSBaselinesGuardedPValue times one guarded test of a window of 8
// against a 384-value baseline read in place, in the two regimes the kernel
// sees: a shifted window, whose baseline values all take the one-compare
// path, and a window inside the baseline's range (guard tolerance lowered so
// the KS test runs), whose values each need a count over the window.
func BenchmarkKSBaselinesGuardedPValue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	baseline := make([]float64, 384)
	for i := range baseline {
		baseline[i] = 100 + rng.NormFloat64()*10
	}
	for _, bc := range []struct {
		name  string
		shift float64
		tol   float64
	}{
		{"shifted", 200, 0},
		{"overlap", 5, 0.001},
	} {
		b.Run(bc.name, func(b *testing.B) {
			set := NewKSBaselines(1)
			if err := set.Add(baseline); err != nil {
				b.Fatal(err)
			}
			window := make([]float64, 8)
			for i := range window {
				window[i] = 100 + bc.shift + rng.NormFloat64()*10
			}
			sortFloat64s(window)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p, err := set.GuardedPValue(0, window, bc.tol); err != nil || p == 1 {
					b.Fatalf("p = %v, err = %v: the KS test did not run", p, err)
				}
			}
		})
	}
}
