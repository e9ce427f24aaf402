package stats

import (
	"fmt"
	"math"
	"slices"
)

// This file is the incremental two-sample KS engine. Its storage comes in
// two halves, each built for many comparisons at once:
//
//   - WindowSlab is the hot half: the sliding production windows, packed
//     back to back in one []float64, plus a 16-byte bookkeeping record per
//     window. A push touches one window's stretch of the slab and its
//     record, nothing else.
//   - KSBaselines is the cold half: every baseline in ascending order — the
//     caller's own series when it is sorted already, as a core.Model's
//     always is, else a private sorted copy — with its size and the guard's
//     trimmed mean. Only a statistic reads it.
//
// Window i of a slab pairs with baseline i of a set; the stream detector
// keeps one of each per (metric, service) pair.
//
// The batch pipeline re-sorts both samples on every PValue call — O(n log n)
// per tick once a streaming consumer re-tests after every hop. The slab
// maintains each production window through ordered insert/evict: a ring
// remembers arrival order (so the oldest value can be evicted when the
// window is full) and a sorted index keeps the finite values ordered between
// pushes. A push costs O(window): one pass over the sorted index that moves
// the evicted value's slot to the new value's place (WindowSlab.Push). The
// D statistic never pays a sort either: two binary searches of the sorted
// baseline per distinct window value find every candidate for the maximum
// (ksDistanceSearch).
//
// Equivalence contract: after any sequence of pushes into window i,
// KSBaselines.PValue(i, slab.Sorted(i)) equals KSTest{}.PValue(window,
// baseline) and GuardedPValue equals GuardedTest{}.PValue(window, baseline)
// — bit for bit, where window is the retained arrival-order suffix with
// non-finite values dropped (the same finiteValues filtering core.Detect
// applies in either mode).
// FuzzIncrementalKS cross-checks this invariant.

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
	return &WindowSlab{
		w:    window,
		vals: make([]float64, 2*window*n),
		meta: make([]WindowMeta, n),
	}, nil
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
//
// The sorted index changes in one pass. When a finite value leaves a full
// ring and a finite one arrives, the evicted value's slot becomes a hole
// that moves toward the new value's place, each value it passes shifting
// one slot into it, and the new value fills the hole where it stops. A fill
// (a ring not yet full, or a non-finite value evicted) opens the hole past
// the last value; a drain (a non-finite value arriving) closes the evicted
// value's slot. The index holds the same multiset as a remove-then-insert
// would; only the relative order of −0 and +0 may differ, which no
// statistic can see, as they compare values with < and ==.
func (s *WindowSlab) Push(i int, v float64) {
	w := s.w
	m := &s.meta[i]
	buf := s.vals[2*i*w : 2*i*w+2*w]
	ring, index := buf[:w], buf[w:]
	n := int(m.finite)
	slot := m.pushed
	m.pushed++
	old := math.NaN() // nothing to evict until the ring is full
	if slot >= w {
		slot %= w
		old = ring[slot]
	}
	ring[slot] = v
	switch oldFinite, newFinite := isFinite(old), isFinite(v); {
	case oldFinite && newFinite:
		settle(index[:n], indexOf(index[:n], old), v)
	case newFinite:
		settle(index[:n+1], n, v)
		m.finite++
	case oldFinite:
		j := indexOf(index[:n], old)
		copy(index[j:n-1], index[j+1:n])
		m.finite--
	}
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
	ring, index := buf[:w], buf[w:]
	first := pushed - len(values) // lifetime index of values[0]
	n := 0
	for j, v := range values {
		ring[(first+j)%w] = v
		if isFinite(v) {
			settle(index[:n+1], n, v)
			n++
		}
	}
	m.pushed = pushed
	m.finite = int32(n)
	return nil
}

// indexOf returns the position of a value equal to v in the ascending s,
// which holds one.
func indexOf(s []float64, v float64) int {
	j := 0
	for s[j] != v { //vet:allow floateq -- exact lookup of a value known to be present
		j++
	}
	return j
}

// settle fills the hole at s[j] with v and leaves s ascending: s is
// ascending but for s[j], whose value is gone. The hole moves toward v's
// place, each value it passes shifting one slot into it, so every moved
// value is written once; only one of the two loops moves anything.
func settle(s []float64, j int, v float64) {
	for j+1 < len(s) && s[j+1] < v {
		s[j] = s[j+1]
		j++
	}
	for j > 0 && s[j-1] > v {
		s[j] = s[j-1]
		j--
	}
	s[j] = v
}

// KSBaselines holds the baseline side of many incremental KS comparisons in
// cold arrays: each baseline in ascending order, its size and the
// practical-equivalence guard's trimmed mean. Baseline i pairs with window i
// of a WindowSlab; the statistics search the sorted baseline for that
// window's sorted values (ksDistanceSearch).
type KSBaselines struct {
	series  [][]float64 // ascending: the callers' sorted series, or private sorted copies
	size    []int       // sample sizes; zero for an untestable entry
	trimmed []float64   // trimmedMeanSorted(baseline, DefaultTrim)
	keys    Sorter      // the radix keys Add reuses to sort private copies
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
// index. A sample in ascending order — every core.Model baseline series is —
// is kept by reference and must not be modified afterwards; any other is
// sorted into a private copy. A NaN value is rejected: it has no place in
// the order the KS statistic searches. An empty sample adds an entry that
// can never be tested: its Len is zero.
func (b *KSBaselines) Add(sample []float64) error {
	sorted := sample
	if !slices.IsSorted(sample) {
		sorted = slices.Clone(sample)
		b.keys.Sort(sorted)
	}
	var trimmed float64
	if len(sorted) > 0 {
		// Ascending order puts NaNs first, so one look finds any.
		if math.IsNaN(sorted[0]) {
			return fmt.Errorf("stats: incremental ks: baseline holds NaN")
		}
		trimmed = trimmedMeanSorted(sorted, DefaultTrim)
	}
	b.series = append(b.series, sorted)
	b.size = append(b.size, len(sorted))
	b.trimmed = append(b.trimmed, trimmed)
	return nil
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
	return ksPValue(ksDistanceSearch(window, b.series[i]), len(window), b.size[i])
}

// GuardedPValue returns GuardedTest{RelTol: relTol}.PValue(window,
// baseline i) for the sorted finite window: the practical-equivalence guard
// first, against the cached baseline trimmed mean, then the KS p-value.
// relTol zero selects DefaultRelTol, matching the guard's defaulting.
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

// ksDistanceSearch returns ksDistanceSorted(a, b) bit for bit for the
// ascending, non-empty window a and the ascending baseline b, in two binary
// searches of b per distinct value of a.
//
// The walk evaluates |i/n − j/m| at every distinct point of the merged
// support, with i and j the counts of window and baseline values at or
// below it. For a run of tied window values a[k] … a[t-1], let lo and hi
// count the baseline values below and at or below a[k]: D is the largest
// |k/n − lo/m| and |t/n − hi/m| over the runs. Below a[k], back to the
// previous window value, i = k is fixed and fl(j/m) is monotone in j, so
// |i/n − j/m| peaks at an end: the previous run's candidate, or the last
// baseline value below a[k] (an empty stretch repeats the former). Points
// above a[n-1] only shrink toward |1 − 1|. The candidates use the walk's
// own expression, so the maximum is the same float64; an empty baseline
// gives the walk's 0, every candidate being NaN.
func ksDistanceSearch(a, b []float64) float64 {
	na, nb := float64(len(a)), float64(len(b))
	var d float64
	for k := 0; k < len(a); {
		v := a[k]
		t := k + 1
		for t < len(a) && a[t] == v { //vet:allow floateq -- a run of tied window values is one point of the support
			t++
		}
		lo := searchBelow(b, v)
		// The count at or below v is the count below the next float up;
		// nothing lies above +Inf.
		hi := len(b)
		if !math.IsInf(v, 1) {
			hi = lo + searchBelow(b[lo:], math.Nextafter(v, math.Inf(1)))
		}
		if diff := abs(float64(k)/na - float64(lo)/nb); diff > d {
			d = diff
		}
		if diff := abs(float64(t)/na - float64(hi)/nb); diff > d {
			d = diff
		}
		k = t
	}
	return d
}

// searchBelow returns the count of the ascending a's values below v — the
// first index holding a value ≥ v — by a binary search whose trip count
// depends only on len(a), not on v or the values.
func searchBelow(a []float64, v float64) int {
	if len(a) == 0 {
		return 0
	}
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
	return abs(v) <= math.MaxFloat64 // false for NaN, whose comparisons all fail
}
