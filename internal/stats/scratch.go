package stats

import (
	"math"
	"slices"
	"sync"
)

// radixMinLen is the shortest sample Sorter.Sort radix-sorts; shorter ones
// go to slices.Sort. BenchmarkSortFloat64s sets it: the radix path pays a
// fixed cost of about 1.3 µs to clear and sum its 256-bucket histograms, so
// pdqsort wins at 64 values and the radix path from 96 up, by 2.7× at 384.
// The pipeline's windows (about 19 values) stay on pdqsort; the fleet's
// 384-value baselines take the radix path.
const radixMinLen = 96

// Sorter sorts float64 samples, holding the order-preserving keys and the
// scatter buffer of its radix path. Its zero value is ready; the buffers
// grow to the longest sample radix-sorted and are reused after that. A
// Sorter is not safe for concurrent use.
type Sorter struct {
	keys, tmp []uint64
}

// Sort sorts s ascending in place, with NaNs first: the order of
// slices.Sort, except that −0 may land before an equal +0 that pdqsort
// would have left after it. No consumer can see that: the KS statistics
// compare with < and ==, and the trimmed-mean sum, starting at +0, never
// becomes −0. Samples from radixMinLen values up take radixSortFloat64s,
// shorter ones slices.Sort.
func (k *Sorter) Sort(s []float64) {
	if len(s) < radixMinLen || uint64(len(s)) > math.MaxUint32 {
		slices.Sort(s)
		return
	}
	radixSortFloat64s(s, k)
}

// radixSortFloat64s is Sorter.Sort's LSD radix sort, one byte per pass,
// over keys that order like the floats: one key pass builds all eight byte
// histograms, a byte that every key shares is skipped, each other byte is
// one stable scatter, and a last pass decodes the keys back. A NaN has no
// place in that key order, so meeting one hands the whole sample to
// slices.Sort. s must be shorter than 2^32.
func radixSortFloat64s(s []float64, k *Sorter) {
	n := len(s)
	if n == 0 {
		return
	}
	if cap(k.keys) < n {
		k.keys = make([]uint64, n)
		k.tmp = make([]uint64, n)
	}
	src, dst := k.keys[:n], k.tmp[:n]

	var counts [8][256]uint32
	for i, v := range s {
		if math.IsNaN(v) {
			slices.Sort(s)
			return
		}
		// Flip every bit of a negative value and only the sign bit of a
		// non-negative one: unsigned key order is then float order.
		u := math.Float64bits(v)
		u ^= uint64(int64(u)>>63) | 1<<63
		src[i] = u
		counts[0][byte(u)]++
		counts[1][byte(u>>8)]++
		counts[2][byte(u>>16)]++
		counts[3][byte(u>>24)]++
		counts[4][byte(u>>32)]++
		counts[5][byte(u>>40)]++
		counts[6][byte(u>>48)]++
		counts[7][byte(u>>56)]++
	}

	first := src[0]
	for pass := range counts {
		shift := uint(8 * pass)
		c := &counts[pass]
		if c[byte(first>>shift)] == uint32(n) {
			continue // every key shares this byte
		}
		var sum uint32
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, u := range src {
			b := byte(u >> shift)
			dst[c[b]] = u
			c[b]++
		}
		src, dst = dst, src
	}

	for i, u := range src {
		s[i] = math.Float64frombits(u ^ (uint64(int64(^u)>>63) | 1<<63))
	}
}

// scratch holds the reusable sort buffers of the hot two-sample paths. The
// learner's KS matrix calls PValue once per (service × metric × intervention)
// cell; without pooling every call allocates and garbage-collects two sample
// copies, which dominates the profile once campaigns fan out across workers.
// A sync.Pool gives each worker goroutine an effectively private buffer pair
// with no coordination on the hot path.
type scratch struct {
	a, b []float64
	keys Sorter
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// borrowScratch returns a scratch with a and b holding sorted copies of x
// and y. Callers must release() it before returning and must not let the
// slices escape.
func borrowScratch(x, y []float64) *scratch {
	s := scratchPool.Get().(*scratch)
	s.a = append(s.a[:0], x...)
	s.b = append(s.b[:0], y...)
	s.keys.Sort(s.a)
	s.keys.Sort(s.b)
	return s
}

// release returns the scratch (and its grown capacity) to the pool.
func (s *scratch) release() { scratchPool.Put(s) }
