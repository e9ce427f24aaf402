package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestPValueMatchesECDFPath pins the pooled fast path to the reference ECDF
// implementation: same statistic, same p-value, no mutation of the inputs.
func TestPValueMatchesECDFPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ks KSTest
	for round := 0; round < 200; round++ {
		n := 2 + rng.Intn(40)
		m := 2 + rng.Intn(40)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64() + rng.Float64()
		}
		xCopy := append([]float64(nil), x...)
		yCopy := append([]float64(nil), y...)

		d, err := ks.Statistic(x, y)
		if err != nil {
			t.Fatal(err)
		}
		ne := float64(n) * float64(m) / float64(n+m)
		sq := math.Sqrt(ne)
		want := kolmogorovQ((sq + 0.12 + 0.11/sq) * d)

		got, err := ks.PValue(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: pooled PValue %v != ECDF-path %v", round, got, want)
		}
		for i := range x {
			if x[i] != xCopy[i] {
				t.Fatal("PValue mutated its first sample")
			}
		}
		for i := range y {
			if y[i] != yCopy[i] {
				t.Fatal("PValue mutated its second sample")
			}
		}
	}
}

// TestGuardedTestDoesNotMutateSamples guards the pooled trimmed-mean path.
func TestGuardedTestDoesNotMutateSamples(t *testing.T) {
	x := []float64{5, 3, 4, 1, 2}
	y := []float64{9, 7, 8, 6, 10}
	test := GuardedTest{}
	if _, err := test.PValue(x, y); err != nil {
		t.Fatal(err)
	}
	if x[0] != 5 || x[4] != 2 || y[0] != 9 || y[4] != 10 {
		t.Fatalf("guarded test mutated inputs: x=%v y=%v", x, y)
	}
}

func BenchmarkMicro_KSTestPooled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 19)
	y := make([]float64, 19)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64() + 0.5
	}
	var ks KSTest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ks.PValue(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// sortFuzzSample decodes fuzz bytes into a sample for the sort kernel. With
// grid zero every 8 bytes are one raw bit pattern, NaN payloads and
// subnormals included. Otherwise every byte is one value on a grid of that
// many points, so ties are common, and the top bytes name the values a float
// sort must place with care.
func sortFuzzSample(data []byte, grid uint8) []float64 {
	var out []float64
	if grid == 0 {
		for ; len(data) >= 8; data = data[8:] {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		return out
	}
	specials := [...]float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), // the largest subnormal
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, c := range data {
		if i := 255 - int(c); i < len(specials) {
			out = append(out, specials[i])
			continue
		}
		out = append(out, float64(int(c)%int(grid)-int(grid)/2))
	}
	return out
}

// matchesSliceSort reports the first index where the sorted got differs from
// want, slices.Sort's order of the same input, by bit pattern. Unless exact,
// a −0 may stand where want has +0 and the reverse, as long as both hold as
// many of each.
func matchesSliceSort(got, want []float64, exact bool) error {
	negZeros := 0
	for i := range want {
		g, w := math.Float64bits(got[i]), math.Float64bits(want[i])
		if g == w {
			continue
		}
		if exact || got[i] != 0 || want[i] != 0 {
			return fmt.Errorf("index %d: got %v (%#x), slices.Sort %v (%#x)", i, got[i], g, want[i], w)
		}
		if math.Signbit(got[i]) {
			negZeros++
		} else {
			negZeros--
		}
	}
	if negZeros != 0 {
		return fmt.Errorf("the sort changed the count of -0 by %d", negZeros)
	}
	return nil
}

// FuzzSortFloat64s pins the radix kernel to slices.Sort: for any input, at
// any length, the radix path returns slices.Sort's sequence bit for bit up to
// the places of −0 and +0, and the same trimmed mean bit for bit. An input
// holding a NaN takes the fallback and matches exactly. Sorter.Sort, which
// picks a path by length, must agree as well. reps tiles the input, so short
// seeds reach lengths on both sides of radixMinLen.
func FuzzSortFloat64s(f *testing.F) {
	raw := make([]byte, 8*200)
	rand.New(rand.NewSource(5)).Read(raw)
	tie := []byte{1, 2, 2, 3, 9, 9, 9, 0, 17}
	f.Add(tie, uint8(8), uint8(0))                                            // short, ties
	f.Add(tie, uint8(8), uint8(40))                                           // ties past the crossover
	f.Add([]byte{252, 251, 1, 252, 251, 251, 9}, uint8(16), uint8(30))        // ±0 among others
	f.Add([]byte{254, 253, 250, 249, 248, 247, 246, 3}, uint8(16), uint8(30)) // ±Inf, subnormals, ±MaxFloat64
	f.Add([]byte{7}, uint8(32), uint8(radixMinLen-2))                         // all equal, one short of the crossover
	f.Add([]byte{7}, uint8(32), uint8(radixMinLen-1))                         // all equal, at the crossover
	f.Add([]byte{3, 255, 1, 252, 251}, uint8(16), uint8(60))                  // NaN: the fallback
	f.Add(raw, uint8(0), uint8(0))                                            // raw bit patterns
	f.Add(raw[:8*20], uint8(0), uint8(15))                                    // raw bits, tiled
	f.Fuzz(func(t *testing.T, data []byte, grid, reps uint8) {
		const maxBytes = 1 << 13
		tiled := bytes.Repeat(data, min(1+int(reps), 1+maxBytes/max(len(data), 1)))
		in := sortFuzzSample(tiled[:min(len(tiled), maxBytes)], grid)
		exact := slices.ContainsFunc(in, math.IsNaN)
		var keys Sorter
		// The reversed copy sorts with the buffers the first one grew.
		rev := slices.Clone(in)
		slices.Reverse(rev)
		for _, sample := range [][]float64{in, rev} {
			want := slices.Clone(sample)
			slices.Sort(want)
			for _, path := range []struct {
				name string
				sort func([]float64)
			}{
				{"radixSortFloat64s", func(s []float64) { radixSortFloat64s(s, &keys) }},
				{"Sorter.Sort", keys.Sort},
			} {
				got := slices.Clone(sample)
				path.sort(got)
				if err := matchesSliceSort(got, want, exact); err != nil {
					t.Fatalf("%s of %d values: %v", path.name, len(sample), err)
				}
				if len(got) == 0 {
					continue
				}
				tg, tw := trimmedMeanSorted(got, DefaultTrim), trimmedMean(sample, DefaultTrim)
				if math.Float64bits(tg) != math.Float64bits(tw) {
					t.Fatalf("%s of %d values: trimmed mean %v, slices.Sort's %v", path.name, len(sample), tg, tw)
				}
			}
		}
	})
}

// fleetShapedSamples returns count samples of n values shaped like the
// stream fleet's baselines: a mean between 10 and 60 plus unit normal noise.
// Each is drawn on its own, so a benchmark cycling through them gives the
// branch predictor no single input order to learn.
func fleetShapedSamples(count, n int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([][]float64, count)
	for i := range out {
		mean := 10 + 3*float64(rng.Intn(8)) + 0.5*float64(rng.Intn(64))
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = mean + rng.NormFloat64()
		}
	}
	return out
}

// BenchmarkSortFloat64s times both sort paths on fleet-shaped samples across
// the crossover; its numbers set radixMinLen. Each op copies the next of 64
// samples into the buffer and sorts it.
func BenchmarkSortFloat64s(b *testing.B) {
	for _, n := range []int{8, 64, 96, 128, 192, 384} {
		samples := fleetShapedSamples(64, n)
		buf := make([]float64, n)
		var keys Sorter
		for _, path := range []struct {
			name string
			sort func([]float64)
		}{
			{"pdqsort", slices.Sort[[]float64]},
			{"radix", func(s []float64) { radixSortFloat64s(s, &keys) }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, path.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(buf, samples[i%len(samples)])
					path.sort(buf)
				}
			})
		}
	}
}

// BenchmarkKSBaselinesAdd times adding one 384-value fleet-shaped baseline.
// A sorted series, as every model baseline is, costs Add an order check and
// the trimmed mean; an unsorted one falls back to a private sorted copy.
// Each run of 256 adds fills a fresh set, as one detector would.
func BenchmarkKSBaselinesAdd(b *testing.B) {
	unsorted := fleetShapedSamples(256, 384)
	sorted := make([][]float64, len(unsorted))
	for i, s := range unsorted {
		sorted[i] = slices.Clone(s)
		slices.Sort(sorted[i])
	}
	for _, bc := range []struct {
		name    string
		samples [][]float64
	}{{"sorted", sorted}, {"unsorted", unsorted}} {
		b.Run(bc.name, func(b *testing.B) {
			var set *KSBaselines
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(bc.samples) == 0 {
					b.StopTimer()
					set = NewKSBaselines(len(bc.samples))
					b.StartTimer()
				}
				if err := set.Add(bc.samples[i%len(bc.samples)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
