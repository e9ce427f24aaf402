package stats

import (
	"fmt"
	"math"
	"sync"
)

// This file is the incremental two-sample KS engine. Its storage comes in
// two halves, each built for many comparisons at once:
//
//   - WindowSlab is the hot half: the sliding production windows, packed
//     back to back in one []float64, plus a 16-byte bookkeeping record per
//     window. A push touches one window's stretch of the slab and its
//     record, nothing else.
//   - KSBaselines is the cold half: a reference to every caller's baseline,
//     read in place and never copied, with its size and the guard's trimmed
//     mean. Only a statistic reads it.
//
// IncrementalKS is the single-comparison view over one window of each — the
// stream detector uses the two halves directly, at one window per (metric,
// service) pair, so both run the same push, evict and statistic code.

// IncrementalKS maintains a two-sample Kolmogorov–Smirnov comparison between
// a fixed baseline sample and a bounded sliding window of production values.
//
// The batch pipeline re-sorts both samples on every PValue call — O(n log n)
// per tick once a streaming consumer re-tests after every hop. This state
// maintains the production window through ordered insert/evict: a ring
// buffer remembers arrival order (so the oldest value can be evicted when
// the window is full) and an order-statistics index keeps the finite values
// sorted between pushes. A push costs O(window): a count of the values
// below the new one and a bounded shift inside the window. The D statistic
// never pays a sort either: one pass drops each baseline value, in its
// original order, into the sorted window's buckets (ksDistanceUnsorted).
//
// Equivalence contract: after any sequence of pushes, PValue equals
// KSTest{}.PValue(window, baseline) and GuardedPValue equals
// GuardedTest{Inner: KSTest{}}.PValue(window, baseline) — bit for bit, where
// window is the retained arrival-order suffix with non-finite values dropped
// (the same finiteValues filtering the tolerant detection path applies).
// FuzzIncrementalKS cross-checks this invariant.
type IncrementalKS struct {
	win  WindowSlab
	base KSBaselines
}

// NewIncrementalKS builds the state for one (baseline, sliding window) pair.
// The baseline is copied once, so the caller may reuse it; window is the
// maximum number of production values retained.
func NewIncrementalKS(baseline []float64, window int) (*IncrementalKS, error) {
	if len(baseline) == 0 {
		return nil, fmt.Errorf("stats: incremental ks: empty baseline")
	}
	win, err := NewWindowSlab(1, window)
	if err != nil {
		return nil, err
	}
	k := &IncrementalKS{win: *win, base: *NewKSBaselines(1)}
	// The set reads its baselines in place; this state owns its copy.
	if err := k.base.Add(append([]float64(nil), baseline...)); err != nil {
		return nil, err
	}
	return k, nil
}

// Push appends one production value, evicting the oldest when the window is
// full. Non-finite values age through the ring like any other but never
// enter the sorted index, mirroring the tolerant detection path's
// finite-values filter.
func (k *IncrementalKS) Push(v float64) { k.win.Push(0, v) }

// Len reports the number of finite values currently in the window — the
// sample size the min-sample guard checks.
func (k *IncrementalKS) Len() int { return k.win.Len(0) }

// Pushed reports how many values were ever pushed (including ones that have
// aged out).
func (k *IncrementalKS) Pushed() int { return k.win.Pushed(0) }

// Window materializes the retained values in arrival order (a copy),
// non-finite entries included. It is the exact series a batch consumer would
// see for this pair, used by the generic-test fallback and the conformance
// suite.
func (k *IncrementalKS) Window() []float64 { return k.win.Window(0) }

// D returns the current KS statistic between the finite window and the
// baseline.
func (k *IncrementalKS) D() (float64, error) { return k.base.distance(0, k.win.Sorted(0)) }

// PValue returns KSTest{}.PValue(window, baseline) without re-sorting either
// sample.
func (k *IncrementalKS) PValue() (float64, error) { return k.base.PValue(0, k.win.Sorted(0)) }

// GuardedPValue returns GuardedTest{Inner: KSTest{}, RelTol:
// relTol}.PValue(window, baseline): the practical-equivalence guard first
// (with the baseline trimmed mean cached), then the KS p-value. relTol zero
// selects DefaultRelTol, matching the guard's defaulting.
func (k *IncrementalKS) GuardedPValue(relTol float64) (float64, error) {
	return k.base.GuardedPValue(0, k.win.Sorted(0), relTol)
}

// RestoreWindow refills a freshly constructed state from a persisted
// snapshot: values is the retained arrival-order window (exactly what Window
// returned at snapshot time, non-finite entries included) and pushed the
// lifetime push count. After a successful restore the state is
// indistinguishable from one that ingested the original stream — the ring
// contents, the sorted index multiset and the push counter all match, so
// every subsequent Push/PValue sequence produces bit-identical results.
//
// The state must be fresh (nothing pushed yet), and the snapshot must be
// self-consistent: a ring that has seen `pushed` values retains exactly
// min(pushed, window) of them. Inconsistent input is rejected with an error
// so a corrupted snapshot cannot silently seed a diverging detector.
func (k *IncrementalKS) RestoreWindow(values []float64, pushed int) error {
	return k.win.Restore(0, values, pushed)
}

// WindowSlab holds the sliding production windows of many incremental KS
// comparisons in one contiguous []float64. Window i owns the 2×window values
// starting at i×2×window: its ring (arrival order) first, then its sorted
// index (the finite ring values, ascending). Its bookkeeping is the i-th
// WindowMeta of one dense array. A push therefore touches one stretch of
// 2×window adjacent values and one 16-byte record — a window of 8 fits in
// two cache lines — instead of chasing per-window heap objects.
//
// The ring needs no head field: value number j of a window's lifetime lands
// in ring slot j mod window, so the oldest retained value sits in slot
// pushed mod window once the ring is full, and in slot 0 before.
type WindowSlab struct {
	w    int
	vals []float64
	meta []WindowMeta
}

// WindowMeta is one window's bookkeeping in a WindowSlab: 16 bytes, four to a
// cache line.
type WindowMeta struct {
	pushed int   // lifetime push count
	finite int32 // finite values in the ring: the sorted index's length
	// Flags is spare room for the slab's owner — the stream detector keeps
	// its per-pair flag bits here. The slab never reads or writes it.
	Flags uint8
}

// NewWindowSlab allocates n empty windows of the given capacity: one slab
// and one metadata array, whatever n.
func NewWindowSlab(n, window int) (*WindowSlab, error) {
	if window < 1 {
		return nil, fmt.Errorf("stats: incremental ks: window must be >= 1, got %d", window)
	}
	if window > math.MaxInt32 {
		return nil, fmt.Errorf("stats: incremental ks: window %d exceeds %d", window, math.MaxInt32)
	}
	if n < 0 {
		return nil, fmt.Errorf("stats: incremental ks: negative window count %d", n)
	}
	return &WindowSlab{w: window, vals: make([]float64, 2*window*n), meta: make([]WindowMeta, n)}, nil
}

// Count reports the number of windows in the slab.
func (s *WindowSlab) Count() int { return len(s.meta) }

// Meta returns window i's bookkeeping record.
func (s *WindowSlab) Meta(i int) *WindowMeta { return &s.meta[i] }

// Pushed reports how many values were ever pushed into window i.
func (s *WindowSlab) Pushed(i int) int { return s.meta[i].pushed }

// Len reports the number of finite values window i retains.
func (s *WindowSlab) Len(i int) int { return int(s.meta[i].finite) }

// Sorted returns window i's finite values in ascending order. The slice
// aliases the slab: it is valid until the next push into window i and must
// not be modified.
func (s *WindowSlab) Sorted(i int) []float64 {
	lo := (2*i + 1) * s.w
	return s.vals[lo : lo+int(s.meta[i].finite)]
}

// Window returns a copy of window i's retained values in arrival order,
// non-finite entries included.
func (s *WindowSlab) Window(i int) []float64 {
	w := s.w
	ring := s.vals[2*i*w : 2*i*w+w]
	p := s.meta[i].pushed
	if p <= w {
		return append(make([]float64, 0, p), ring[:p]...)
	}
	head := p % w
	return append(append(make([]float64, 0, w), ring[head:]...), ring[:head]...)
}

// Push appends one production value to window i, evicting the oldest when
// the window is full. Non-finite values age through the ring like any other
// but never enter the sorted index.
func (s *WindowSlab) Push(i int, v float64) {
	w := s.w
	m := &s.meta[i]
	buf := s.vals[2*i*w : 2*i*w+2*w]
	ring, sorted := buf[:w], buf[w:w+int(m.finite)]
	slot := m.pushed
	old := math.NaN() // nothing to evict until the ring is full
	if slot >= w {
		slot %= w
		old = ring[slot]
	}
	ring[slot] = v
	m.pushed++
	if isFinite(old) {
		sorted = removeSorted(sorted, old)
	}
	if isFinite(v) {
		sorted = insertSorted(sorted, v)
	}
	m.finite = int32(len(sorted))
}

// Restore refills a fresh window i from a persisted snapshot: values is the
// retained arrival-order window, non-finite entries included, and pushed the
// lifetime push count. The values land in the ring slots the original
// pushes used and enter the sorted index in arrival order, so the window is
// indistinguishable from one that ingested the original stream. A window
// that was pushed into already, or a snapshot that does not retain exactly
// min(pushed, window) values, is rejected.
func (s *WindowSlab) Restore(i int, values []float64, pushed int) error {
	m := &s.meta[i]
	if m.pushed != 0 {
		return fmt.Errorf("stats: incremental ks: restore into a state with %d values already pushed", m.pushed)
	}
	if pushed < 0 {
		return fmt.Errorf("stats: incremental ks: negative push count %d", pushed)
	}
	w := s.w
	if want := min(pushed, w); len(values) != want {
		return fmt.Errorf("stats: incremental ks: snapshot retains %d values but %d pushed into a window of %d wants %d",
			len(values), pushed, w, want)
	}
	buf := s.vals[2*i*w : 2*i*w+2*w]
	ring, sorted := buf[:w], buf[w:w]
	first := pushed - len(values) // lifetime index of values[0]
	for j, v := range values {
		ring[(first+j)%w] = v
		if isFinite(v) {
			sorted = insertSorted(sorted, v)
		}
	}
	m.pushed = pushed
	m.finite = int32(len(sorted))
	return nil
}

// lowerBound returns the first index of the ascending s holding a value ≥ v,
// by counting the values below v. The linear pass costs no more than the
// O(len(s)) shift every insert or evict pays after it.
func lowerBound(s []float64, v float64) int {
	n := 0
	for _, x := range s {
		if x < v {
			n++
		}
	}
	return n
}

// insertSorted places v into the ascending s, whose backing array has room
// for one more value, and returns the grown slice.
func insertSorted(s []float64, v float64) []float64 {
	i := lowerBound(s, v)
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeSorted evicts one instance of v from the ascending s and returns the
// shrunk slice. Which instance of a tied value is removed is immaterial: the
// multiset is what the statistics see.
func removeSorted(s []float64, v float64) []float64 {
	i := lowerBound(s, v)
	if i >= len(s) || s[i] != v { //vet:allow floateq -- exact bit-match lookup of a value known to be present
		return s
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// KSBaselines holds the baseline side of many incremental KS comparisons in
// cold arrays. It keeps a reference to each caller's baseline series as it
// was added — no copy and no sort — and computes the exact statistic against
// it in place (ksDistanceUnsorted), next to each baseline's size and the
// practical-equivalence guard's trimmed mean. Baseline i pairs with window i
// of a WindowSlab; the statistics take that window's sorted values.
//
// Because the set reads the callers' series on every statistic, a baseline
// must not be modified after it is added.
type KSBaselines struct {
	series  [][]float64 // the callers' baselines, read in place
	size    []int       // sample sizes; zero for an untestable entry
	trimmed []float64   // trimmedMeanSorted(baseline, DefaultTrim)
	scratch []float64   // the sort buffer Add reuses for the trimmed mean
}

// NewKSBaselines returns an empty baseline set. count is a capacity hint:
// with it exact, building the set allocates each array once.
func NewKSBaselines(count int) *KSBaselines {
	return &KSBaselines{
		series:  make([][]float64, 0, count),
		size:    make([]int, 0, count),
		trimmed: make([]float64, 0, count),
	}
}

// Add appends the next baseline, which pairs with the window of the same
// index. The set keeps a reference to sample, which must not be modified
// afterwards. The guard's trimmed mean is computed here, over a sorted copy
// in a reused buffer. A NaN value is rejected: it has no place in the order
// the KS statistic walks. An empty sample adds an entry that can never be
// tested: its Len is zero.
func (b *KSBaselines) Add(sample []float64) error {
	for _, v := range sample {
		if math.IsNaN(v) {
			return fmt.Errorf("stats: incremental ks: baseline holds NaN")
		}
	}
	sorted := append(b.scratch[:0], sample...)
	b.scratch = sorted
	sortFloat64s(sorted)
	var trimmed float64
	if len(sorted) > 0 {
		trimmed = trimmedMeanSorted(sorted, DefaultTrim)
	}
	b.series = append(b.series, sample)
	b.size = append(b.size, len(sample))
	b.trimmed = append(b.trimmed, trimmed)
	return nil
}

// distance returns the KS statistic between the sorted finite window and
// baseline i.
func (b *KSBaselines) distance(i int, window []float64) (float64, error) {
	if len(window) == 0 {
		return 0, fmt.Errorf("stats: incremental ks: empty window")
	}
	return ksDistanceUnsorted(window, b.series[i]), nil
}

// PValue returns KSTest{}.PValue(window, baseline i) for the sorted finite
// window without sorting either sample.
func (b *KSBaselines) PValue(i int, window []float64) (float64, error) {
	if len(window) == 0 {
		return 0, fmt.Errorf("stats: ks first sample: stats: ECDF of empty sample")
	}
	return b.pvalue(i, window), nil
}

func (b *KSBaselines) pvalue(i int, window []float64) float64 {
	return ksPValue(ksDistanceUnsorted(window, b.series[i]), len(window), b.size[i])
}

// GuardedPValue returns GuardedTest{Inner: KSTest{}, RelTol:
// relTol}.PValue(window, baseline i) for the sorted finite window: the
// practical-equivalence guard first, against the cached baseline trimmed
// mean, then the KS p-value. relTol zero selects DefaultRelTol, matching the
// guard's defaulting.
func (b *KSBaselines) GuardedPValue(i int, window []float64, relTol float64) (float64, error) {
	if len(window) == 0 {
		return 0, fmt.Errorf("stats: guarded test needs non-empty samples (|x|=%d |y|=%d)", len(window), b.size[i])
	}
	tol := relTol
	if tol == 0 {
		tol = DefaultRelTol
	}
	if tol < 0 {
		return 0, fmt.Errorf("stats: negative relative tolerance %v", tol)
	}
	if sameLocation(trimmedMeanSorted(window, DefaultTrim), b.trimmed[i], tol) {
		return 1, nil
	}
	return b.pvalue(i, window), nil
}

// ksStackWindow is the largest window whose bucket counts
// ksDistanceUnsorted keeps on the stack; larger windows borrow pooled
// counts.
const ksStackWindow = 32

// bucketPool holds the bucket counts of windows above ksStackWindow.
var bucketPool = sync.Pool{New: func() any { return new([]int) }}

// ksDistanceUnsorted returns ksDistanceSorted(a, b') bit for bit, where a is
// sorted ascending and non-empty and b' is b sorted: the exact KS statistic
// against a baseline read in place, in any order, with one pass over it.
//
// The pass drops each baseline value at or below a[n-1] into one of 2n
// buckets of the window a (length n): c[2k] counts values strictly between
// a[k-1] and a[k] (below a[0] for k = 0), c[2k+1] values equal to a[k],
// where k is the first index of a run of tied window values. Values outside
// [a[0], a[n-1]] — most of a shifted window's baseline, the only kind the
// guard lets through — take a one-compare path; those above need no bucket.
//
// The sorted walk evaluates |i/n − j/m| at every distinct point of the
// merged support, with i and j the counts of window and baseline values at
// or below it. With J the running baseline count, D is the largest of
//
//   - |k/n − J/m| at the last point of each non-empty open bucket 2k, and
//   - |t/n − J/m| at each distinct window value, t counting the window
//     values at or below it.
//
// Across one open bucket i = k is fixed and fl(j/m) is monotone in j, so the
// rounded difference is monotone and its absolute value peaks at an end of
// the bucket. The first point never wins: the preceding window value (or,
// for bucket 0, the origin) has the same i and a smaller j. Points above
// a[n-1] have i = n and only shrink toward |1 − 1| = 0. The candidates are
// evaluated with the walk's own expression, so the maximum is the same
// float64. The walk stops when either sample is exhausted; every point it
// skips has i = n or j = m and lies at or below the last point it reached.
func ksDistanceUnsorted(a, b []float64) float64 {
	if n := len(a); n > ksStackWindow {
		pooled := bucketPool.Get().(*[]int)
		if cap(*pooled) < 2*n {
			*pooled = make([]int, 2*n)
		}
		c := (*pooled)[:2*n]
		clear(c)
		d := ksDistanceBuckets(a, b, c)
		bucketPool.Put(pooled)
		return d
	}
	var stack [2 * ksStackWindow]int
	return ksDistanceBuckets(a, b, stack[:2*len(a)])
}

// ksDistanceBuckets is ksDistanceUnsorted over zeroed bucket counts c of
// length 2×len(a).
func ksDistanceBuckets(a, b []float64, c []int) float64 {
	n := len(a)
	lo, hi := a[0], a[n-1]
	below := 0
	for _, v := range b {
		switch {
		case v < lo:
			below++
		case v > hi:
			// Above the window i = n: never the maximum.
		default:
			k := searchBelow(a, v)
			if a[k] == v { //vet:allow floateq -- ties between the samples are exact equality, as in the sorted walk
				c[2*k+1]++
			} else {
				c[2*k]++
			}
		}
	}
	c[0] += below
	na, nb := float64(n), float64(len(b))
	var d float64
	j := 0
	for k := 0; k < n; k++ {
		if c[2*k] > 0 {
			j += c[2*k]
			if diff := abs(float64(k)/na - float64(j)/nb); diff > d {
				d = diff
			}
		}
		j += c[2*k+1]
		if k+1 == n || a[k+1] != a[k] { //vet:allow floateq -- a run of tied window values is one point of the support
			if diff := abs(float64(k+1)/na - float64(j)/nb); diff > d {
				d = diff
			}
		}
	}
	return d
}

// searchBelow returns lowerBound(a, v) — the count of the ascending,
// non-empty a's values below v — by a branch-free binary search.
func searchBelow(a []float64, v float64) int {
	base, size := 0, len(a)
	for size > 1 {
		half := size / 2
		if a[base+half-1] < v {
			base += half
		}
		size -= half
	}
	if a[base] < v {
		base++
	}
	return base
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
