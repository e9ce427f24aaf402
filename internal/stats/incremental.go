package stats

import (
	"fmt"
	"math"
)

// This file is the incremental two-sample KS engine. Its storage comes in
// two halves, each built for many comparisons at once:
//
//   - WindowSlab is the hot half: the sliding production windows, packed
//     back to back in one []float64, plus a 16-byte bookkeeping record per
//     window. A push touches one window's stretch of the slab and its
//     record, nothing else.
//   - KSBaselines is the cold half: every baseline sorted once into one
//     arena (or summarized by an ECDFSketch), with its size and the guard's
//     trimmed mean. Only a statistic reads it.
//
// IncrementalKS is the single-comparison view over one window of each — the
// stream detector uses the two halves directly, at one window per (metric,
// service) pair, so both run the same push, evict and statistic code.

// IncrementalKS maintains a two-sample Kolmogorov–Smirnov comparison between
// a fixed baseline sample and a bounded sliding window of production values.
//
// The batch pipeline re-sorts both samples on every PValue call — O(n log n)
// per tick once a streaming consumer re-tests after every hop. This state
// sorts the baseline exactly once at construction and maintains the
// production window through ordered insert/evict: a ring buffer remembers
// arrival order (so the oldest value can be evicted when the window is full)
// and an order-statistics index keeps the finite values sorted between
// pushes. A push costs O(window): a count of the values below the new one
// and a bounded shift inside the window; the D-statistic walk over the
// merged support never pays a sort.
//
// Equivalence contract: after any sequence of pushes, PValue equals
// KSTest{}.PValue(window, baseline) and GuardedPValue equals
// GuardedTest{Inner: KSTest{}}.PValue(window, baseline) — bit for bit, where
// window is the retained arrival-order suffix with non-finite values dropped
// (the same finiteValues filtering the tolerant detection path applies).
// FuzzIncrementalKS cross-checks this invariant.
// Sketch mode (NewIncrementalKSSketch) replaces the retained baseline with a
// bounded-memory ECDFSketch: per-pair memory drops from O(len(baseline)) to
// O(1/eps) and the KS statistic is computed against the sketched baseline
// ECDF, within ECDFSketch.ErrorBound of the exact statistic — and bit-equal
// to it whenever len(baseline) ≤ SketchCutoff(eps). The guard's trimmed
// baseline mean is computed exactly at construction either way.
type IncrementalKS struct {
	win  WindowSlab
	base KSBaselines
}

// NewIncrementalKS builds the state for one (baseline, sliding window) pair.
// The baseline is copied and sorted once; window is the maximum number of
// production values retained.
func NewIncrementalKS(baseline []float64, window int) (*IncrementalKS, error) {
	return newIncrementalKS(baseline, window, 0)
}

// NewIncrementalKSSketch is NewIncrementalKS with the baseline summarized by
// an ECDFSketch of error budget eps instead of retained exactly: the state
// holds O(1/eps) baseline anchors plus the window, regardless of baseline
// length. The window side is untouched (same ring, same restore semantics),
// the guard's baseline trimmed mean is computed exactly before the baseline
// is dropped, and whenever len(baseline) ≤ SketchCutoff(eps) the sketch is
// lossless and every statistic matches the exact state bit for bit.
func NewIncrementalKSSketch(baseline []float64, window int, eps float64) (*IncrementalKS, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("stats: sketch eps must be in (0,1), got %v", eps)
	}
	return newIncrementalKS(baseline, window, eps)
}

// newIncrementalKS builds a one-window slab and a one-baseline set; eps > 0
// selects sketch mode.
func newIncrementalKS(baseline []float64, window int, eps float64) (*IncrementalKS, error) {
	if len(baseline) == 0 {
		return nil, fmt.Errorf("stats: incremental ks: empty baseline")
	}
	k := &IncrementalKS{}
	win, err := NewWindowSlab(1, window)
	if err != nil {
		return nil, err
	}
	k.win = *win
	base, err := NewKSBaselines(eps, 1, len(baseline))
	if err != nil {
		return nil, err
	}
	k.base = *base
	if err := k.base.Add(baseline); err != nil {
		return nil, err
	}
	return k, nil
}

// Sketch returns the baseline sketch, or nil when the state retains the
// baseline exactly.
func (k *IncrementalKS) Sketch() *ECDFSketch { return k.base.sketchOf(0) }

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

// BaselineLen reports the baseline sample size — the original size in sketch
// mode, where the values themselves are no longer retained.
func (k *IncrementalKS) BaselineLen() int { return k.base.size[0] }

// Window materializes the retained values in arrival order (a copy),
// non-finite entries included. It is the exact series a batch consumer would
// see for this pair, used by the generic-test fallback and the conformance
// suite.
func (k *IncrementalKS) Window() []float64 { return k.win.Window(0) }

// D returns the current KS statistic between the finite window and the
// baseline.
func (k *IncrementalKS) D() (float64, error) { return k.base.distance(0, k.win.Sorted(0)) }

// PValue returns KSTest{}.PValue(window, baseline) without re-sorting either
// sample. In sketch mode the D statistic comes from the sketched baseline
// ECDF (within the sketch's error bound of exact; bit-identical when the
// sketch is lossless).
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
// cold arrays: every baseline sorted once into one arena (exact mode) or
// summarized by an ECDFSketch (sketch mode), plus its size and the
// practical-equivalence guard's trimmed mean. Baseline i pairs with window
// i of a WindowSlab; the statistics take that window's sorted values.
type KSBaselines struct {
	eps     float64       // sketch error budget; zero retains baselines exactly
	arena   []float64     // exact mode: the sorted baselines, back to back
	off     []int         // exact mode: baseline i starts at arena[off[i]]
	size    []int         // original sample sizes; zero for an untestable entry
	trimmed []float64     // trimmedMeanSorted(baseline, DefaultTrim)
	sketch  []*ECDFSketch // sketch mode only
	scratch []float64     // sketch mode: the sort buffer Add reuses
}

// NewKSBaselines returns an empty baseline set. eps > 0 selects sketch mode
// with that error budget. count and total (the summed sample length) are
// capacity hints: with them exact, building the set allocates each array
// once.
func NewKSBaselines(eps float64, count, total int) (*KSBaselines, error) {
	if eps < 0 || eps >= 1 {
		return nil, fmt.Errorf("stats: sketch eps must be in (0,1), got %v", eps)
	}
	b := &KSBaselines{
		eps:     eps,
		size:    make([]int, 0, count),
		trimmed: make([]float64, 0, count),
	}
	if eps > 0 {
		b.sketch = make([]*ECDFSketch, 0, count)
	} else {
		b.arena = make([]float64, 0, total)
		b.off = make([]int, 0, count)
	}
	return b, nil
}

// Add appends baseline number Count(): the sample is copied and sorted once
// (and, in sketch mode, summarized and dropped). An empty sample adds an
// entry that can never be tested: its Len is zero.
func (b *KSBaselines) Add(sample []float64) error {
	var sorted []float64
	if b.eps > 0 {
		for _, v := range sample {
			if !isFinite(v) {
				return fmt.Errorf("stats: incremental ks: sketch baseline must be finite, got %v", v)
			}
		}
		sorted = append(b.scratch[:0], sample...)
		b.scratch = sorted
	} else {
		b.off = append(b.off, len(b.arena))
		b.arena = append(b.arena, sample...)
		sorted = b.arena[len(b.arena)-len(sample):]
	}
	sortFloat64s(sorted)
	var trimmed float64
	var sk *ECDFSketch
	if len(sorted) > 0 {
		trimmed = trimmedMeanSorted(sorted, DefaultTrim)
		if b.eps > 0 {
			sk = newECDFSketchSorted(sorted, b.eps)
		}
	}
	if b.eps > 0 {
		b.sketch = append(b.sketch, sk)
	}
	b.size = append(b.size, len(sample))
	b.trimmed = append(b.trimmed, trimmed)
	return nil
}

// sorted returns baseline i sorted ascending, or nil in sketch mode. The
// slice aliases the arena.
func (b *KSBaselines) sorted(i int) []float64 {
	if b.eps > 0 {
		return nil
	}
	return b.arena[b.off[i] : b.off[i]+b.size[i]]
}

// sketchOf returns baseline i's sketch, or nil when baselines are retained
// exactly.
func (b *KSBaselines) sketchOf(i int) *ECDFSketch {
	if b.eps > 0 {
		return b.sketch[i]
	}
	return nil
}

// distance returns the KS statistic between the sorted finite window and
// baseline i.
func (b *KSBaselines) distance(i int, window []float64) (float64, error) {
	if len(window) == 0 {
		return 0, fmt.Errorf("stats: incremental ks: empty window")
	}
	if b.eps > 0 {
		return ksDistanceSketch(window, b.sketch[i]), nil
	}
	return ksDistanceSorted(window, b.sorted(i)), nil
}

// PValue returns KSTest{}.PValue(window, baseline i) for the sorted finite
// window without re-sorting either sample. In sketch mode the D statistic
// comes from the sketched baseline ECDF.
func (b *KSBaselines) PValue(i int, window []float64) (float64, error) {
	if len(window) == 0 {
		return 0, fmt.Errorf("stats: ks first sample: stats: ECDF of empty sample")
	}
	return b.pvalue(i, window), nil
}

func (b *KSBaselines) pvalue(i int, window []float64) float64 {
	if b.eps > 0 {
		return ksPValueSketch(window, b.sketch[i])
	}
	return ksPValueSorted(window, b.sorted(i))
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
	tx := trimmedMeanSorted(window, DefaultTrim)
	ty := b.trimmed[i]
	diff := abs(tx - ty)
	scale := abs(tx)
	if s := abs(ty); s > scale {
		scale = s
	}
	if scale == 0 || diff <= tol*scale {
		return 1, nil
	}
	return b.pvalue(i, window), nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
