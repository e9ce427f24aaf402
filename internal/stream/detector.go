package stream

import (
	"context"
	"fmt"
	"sort"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/parallel"
	"causalfl/internal/stats"
)

// Per-pair flag bits, kept in the spare byte of each pair's
// stats.WindowMeta. The first two cache facts about the pair's baseline, so
// the ingest and flush paths read them from the record they touch anyway
// instead of from the cold baseline arrays; the rest are flush state.
const (
	flagUsable   uint8 = 1 << iota // the baseline has a non-empty series: the pair can be observed
	flagLongBase                   // the baseline series clears the min-sample guard
	flagDirty                      // awaiting recomputation at the next flush
	flagTestable                   // counted in its metric's family since the last flush
	flagAnom                       // in its metric's anomalous set since the last flush
)

// untestable is the staged p-value of a pair kept out of its metric's
// family: no window yet, the tolerant min-sample guard, or (strict mode
// only) a test that failed. Real p-values lie in [0, 1], so a pair is
// testable exactly when !(pval < 0).
const untestable = -1.0

// hopValue is one checked window-value of a hop, ready to push.
type hopValue struct {
	pair int
	v    float64
}

// metricAgg is one metric's cached detection aggregate: the current family
// size and the sorted anomalous set, maintained incrementally as pair
// states flip.
type metricAgg struct {
	tested int
	anom   []string // sorted; never handed out directly
}

// insertAnom adds svc to the sorted anomalous set.
func (a *metricAgg) insertAnom(svc string) {
	i := sort.SearchStrings(a.anom, svc)
	a.anom = append(a.anom, "")
	copy(a.anom[i+1:], a.anom[i:])
	a.anom[i] = svc
}

// removeAnom drops svc from the sorted anomalous set.
func (a *metricAgg) removeAnom(svc string) {
	i := sort.SearchStrings(a.anom, svc)
	if i < len(a.anom) && a.anom[i] == svc {
		a.anom = append(a.anom[:i], a.anom[i+1:]...)
	}
}

// Detector maintains sliding-window anomaly detection over a fixed baseline:
// the streaming counterpart of core.Detect. Feed it production window-values
// with Observe/ObserveHop and ask for the current anomalous set with Detect;
// the answer is byte-identical to core.Detect, with its default guarded-KS
// test, on a snapshot holding each pair's last Window values.
//
// Pair state is dense: (metric, service) pair p = metric index ×
// len(Services) + service index, in baseline order. The hot state a push
// touches — the pair's ring and sorted index, side by side in one
// detector-wide slab, and its 16-byte metadata record — is kept apart from
// the cold state only a test reads: the sorted baselines (one arena), their
// trimmed means and sketches, and the cached p-values.
//
// Detection is incremental end to end, in both completeness modes: Observe
// only marks a pair dirty, and the flush before the next Detect recomputes
// exactly the dirty pairs' guarded-KS p-values (split across the worker
// pool) before merging their deltas into per-metric aggregates, which
// Detect then reads. A hop that touches T pairs costs O(T) test evaluations
// regardless of how many services exist. Strict mode differs only in what
// the flush stages (every observed pair, no min-sample guard) and in Detect
// refusing a metric whose family is incomplete.
//
// A Detector is not safe for concurrent use. Parallelism lives inside the
// flush (WithWorkers).
type Detector struct {
	baseline *metrics.Snapshot
	window   int
	alpha    float64
	fdr      float64
	minSamp  int
	tolerant bool
	workers  int

	metricIndex map[string]int // metric name -> index into baseline.Metrics
	svcIndex    map[string]int // service name -> index into baseline.Services
	// win is the hot per-pair state: ring, sorted index and metadata.
	win stats.WindowSlab
	// base is the cold per-pair baseline side, built once here so no
	// per-hop call sorts anything. A pair whose baseline has no usable
	// series has Len 0 (and no flagUsable): it can never be observed or
	// tested.
	base *stats.KSBaselines

	dirty      []int       // pairs awaiting recomputation, in touch order
	pval       []float64   // per pair: the p-value staged by the last flush, or untestable
	aggs       []metricAgg // per metric
	fdrTouched []bool      // metrics needing a family re-decision (FDR mode)
	pvalBuf    []float64   // scratch for the FDR family decision
	hop        []hopValue  // ObserveHop's checked values, reused across hops
}

// NewDetector builds a Detector over the given baseline snapshot. Every
// baseline series is copied and sorted once here; no per-hop call sorts
// anything afterwards. The zero option set means: DefaultWindow,
// core.DefaultAlpha, strict completeness, serial execution. The test is
// always the batch default, stats.GuardedTest{Inner: stats.KSTest{}}.
func NewDetector(baseline *metrics.Snapshot, opts ...Option) (*Detector, error) {
	s, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	return newDetector(baseline, s)
}

// newDetector builds a Detector from resolved settings (shared with
// newLocalizer, which applies the option list once for the whole stack).
func newDetector(baseline *metrics.Snapshot, s settings) (*Detector, error) {
	if baseline == nil {
		return nil, fmt.Errorf("stream: nil baseline snapshot")
	}
	d := &Detector{
		baseline: baseline,
		window:   s.window,
		alpha:    s.alpha,
		fdr:      s.fdr,
		minSamp:  s.minSamples,
		tolerant: s.tolerant,
		workers:  s.workers,
	}
	// Resolve defaults exactly as core.Detect does.
	if d.alpha == 0 && d.fdr == 0 {
		d.alpha = core.DefaultAlpha
	}
	if d.minSamp < 1 {
		d.minSamp = core.DefaultMinSamples
	}
	var err error
	if d.metricIndex, err = indexNames("metric", baseline.Metrics); err != nil {
		return nil, err
	}
	if d.svcIndex, err = indexNames("service", baseline.Services); err != nil {
		return nil, err
	}
	pairs := len(baseline.Metrics) * len(baseline.Services)
	total := 0
	for _, m := range baseline.Metrics {
		for _, svc := range baseline.Services {
			series, _ := baseline.SeriesOK(m, svc)
			total += len(series)
		}
	}
	win, err := stats.NewWindowSlab(pairs, s.window)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	d.win = *win
	if d.base, err = stats.NewKSBaselines(s.sketchEps, pairs, total); err != nil {
		return nil, err
	}
	for mi, m := range baseline.Metrics {
		for si, svc := range baseline.Services {
			series, _ := baseline.SeriesOK(m, svc)
			p := mi*len(baseline.Services) + si
			if err := d.base.Add(series); err != nil {
				return nil, fmt.Errorf("stream: baseline %s/%s: %w", m, svc, err)
			}
			if len(series) > 0 {
				d.win.Meta(p).Flags |= flagUsable
			}
			if len(series) >= d.minSamp {
				d.win.Meta(p).Flags |= flagLongBase
			}
		}
	}
	d.pval = make([]float64, pairs)
	d.aggs = make([]metricAgg, len(baseline.Metrics))
	d.fdrTouched = make([]bool, len(baseline.Metrics))
	return d, nil
}

// indexNames maps each name to its position, rejecting repeats: a pair's
// dense index is only well defined over a universe without duplicates.
func indexNames(kind string, names []string) (map[string]int, error) {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if _, dup := idx[n]; dup {
			return nil, fmt.Errorf("stream: baseline lists %s %q twice", kind, n)
		}
		idx[n] = i
	}
	return idx, nil
}

// Window returns the configured sliding-window length.
func (d *Detector) Window() int { return d.window }

// pair returns the dense index of (metric index mi, svc), and whether the
// baseline has a usable series for it.
func (d *Detector) pair(mi int, svc string) (int, bool) {
	si, ok := d.svcIndex[svc]
	if !ok {
		return 0, false
	}
	p := mi*len(d.baseline.Services) + si
	return p, d.win.Meta(p).Flags&flagUsable != 0
}

// names returns pair p's metric and service.
func (d *Detector) names(p int) (metric, svc string) {
	n := len(d.baseline.Services)
	return d.baseline.Metrics[p/n], d.baseline.Services[p%n]
}

// Observe feeds one production window-value for a (metric, service) pair.
// The metric and service must be declared in the baseline universe. A pair
// the baseline does not cover is a silent no-op in tolerant mode (the batch
// path would skip it) and an error in strict mode (the batch path would fail
// it at Detect time; failing at ingest surfaces the problem earlier).
func (d *Detector) Observe(metric, svc string, v float64) error {
	mi, ok := d.metricIndex[metric]
	if !ok {
		return fmt.Errorf("stream: observe: metric %q not in baseline", metric)
	}
	p, ok := d.pair(mi, svc)
	if !ok {
		if d.tolerant {
			return nil
		}
		return fmt.Errorf("stream: observe: baseline has no usable series for metric %q service %q", metric, svc)
	}
	d.push(p, v)
	return nil
}

// push feeds one value into pair p's window.
func (d *Detector) push(p int, v float64) {
	d.win.Push(p, v)
	d.markDirty(p)
}

// markDirty queues pair p for recomputation at the next flush (a pair is
// queued once however often it changes in between).
func (d *Detector) markDirty(p int) {
	if m := d.win.Meta(p); m.Flags&flagDirty == 0 {
		m.Flags |= flagDirty
		d.dirty = append(d.dirty, p)
	}
}

// ObserveHop feeds one hop's window-values for every (metric, service) pair
// at once: hop maps metric -> service -> value. Ingestion order across
// distinct pairs does not affect any state, so a hop is checked and then
// ingested in map order. Only a hop that fails the check is walked again in
// sorted order, pair by pair, so its partial ingest and its error are
// deterministic: the pairs before the first failing one, in sorted order,
// are ingested, and that pair's error is returned.
func (d *Detector) ObserveHop(hop map[string]map[string]float64) error {
	checked := d.hop[:0]
	for m, vals := range hop {
		mi, ok := d.metricIndex[m]
		if !ok {
			return d.observeSorted(hop)
		}
		for svc, v := range vals {
			p, ok := d.pair(mi, svc)
			if !ok {
				if d.tolerant {
					continue
				}
				return d.observeSorted(hop)
			}
			checked = append(checked, hopValue{pair: p, v: v})
		}
	}
	d.hop = checked
	for _, hv := range checked {
		d.push(hv.pair, hv.v)
	}
	return nil
}

// observeSorted ingests a hop pair by pair in sorted (metric, service)
// order, stopping at the first error.
func (d *Detector) observeSorted(hop map[string]map[string]float64) error {
	ms := make([]string, 0, len(hop))
	for m := range hop {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	for _, m := range ms {
		svcs := make([]string, 0, len(hop[m]))
		for svc := range hop[m] {
			svcs = append(svcs, svc)
		}
		sort.Strings(svcs)
		for _, svc := range svcs {
			if err := d.Observe(m, svc, hop[m][svc]); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush brings the cached detection state current: every pair whose window
// changed since the last flush is recomputed — the dirty list split into
// min(workers, len(dirty)) contiguous parts fanned across the worker pool,
// each pair in exactly one part, so the staged writes are disjoint — and the
// deltas merged serially into the per-metric aggregates. A no-op when
// nothing changed.
func (d *Detector) flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(d.dirty) == 0 {
		return nil
	}
	if parts := min(d.workers, len(d.dirty)); parts > 1 {
		n := len(d.dirty)
		if err := parallel.ForEach(ctx, parts, parts, func(_ context.Context, k int) error {
			d.stage(d.dirty[k*n/parts : (k+1)*n/parts])
			return nil
		}); err != nil {
			return err
		}
	} else {
		d.stage(d.dirty)
	}

	nsvc := len(d.baseline.Services)
	for _, p := range d.dirty {
		mi := p / nsvc
		m := d.win.Meta(p)
		agg := &d.aggs[mi]
		if m.Flags&flagTestable != 0 {
			agg.tested--
			if m.Flags&flagAnom != 0 {
				agg.removeAnom(d.baseline.Services[p%nsvc])
			}
		}
		m.Flags &^= flagDirty | flagTestable | flagAnom
		if pv := d.pval[p]; !(pv < 0) {
			m.Flags |= flagTestable
			agg.tested++
			if d.fdr == 0 && pv < d.alpha {
				m.Flags |= flagAnom
				agg.insertAnom(d.baseline.Services[p%nsvc])
			}
		}
		if d.fdr > 0 {
			d.fdrTouched[mi] = true
		}
	}
	d.dirty = d.dirty[:0]

	// Benjamini-Hochberg couples the whole family: any change within a
	// metric re-decides that metric's family over the cached p-values (a
	// float scan, not a re-test).
	if d.fdr > 0 {
		for mi := range d.fdrTouched {
			if !d.fdrTouched[mi] {
				continue
			}
			d.fdrTouched[mi] = false
			if err := d.redecide(mi); err != nil {
				return err
			}
		}
	}
	return nil
}

// stage recomputes the given dirty pairs' p-values into d.pval, writing
// nothing else, so disjoint pair lists can be staged concurrently. Tolerant
// mode applies the batch min-sample guard; strict mode tests every observed
// pair, as batch strict mode does. The test fails only on a window with no
// finite value, which the tolerant guard excludes: a strict pair whose test
// fails is staged untestable, and its metric's Detect rebuilds the error
// (strictError).
func (d *Detector) stage(pairs []int) {
	for _, p := range pairs {
		d.pval[p] = untestable
		if d.win.Pushed(p) == 0 {
			continue
		}
		if d.tolerant && (d.win.Meta(p).Flags&flagLongBase == 0 || d.win.Len(p) < d.minSamp) {
			continue
		}
		if pv, err := d.pvalue(p); err == nil {
			d.pval[p] = pv
		}
	}
}

// pvalue computes pair p's guarded-KS p-value over the sorted finite window
// and the pre-sorted (or sketched) baseline.
func (d *Detector) pvalue(p int) (float64, error) {
	return d.base.GuardedPValue(p, d.win.Sorted(p), 0)
}

// redecide reruns the family decision for one metric from the cached
// p-values, rebuilding its anomalous set.
func (d *Detector) redecide(mi int) error {
	row := mi * len(d.baseline.Services)
	pvals := d.pvalBuf[:0]
	for si := range d.baseline.Services {
		if d.win.Meta(row+si).Flags&flagTestable != 0 {
			pvals = append(pvals, d.pval[row+si])
		}
	}
	d.pvalBuf = pvals
	shifted, err := core.DecideFamily(pvals, d.alpha, d.fdr)
	if err != nil {
		return fmt.Errorf("stream: anomalies: %w", err)
	}
	agg := &d.aggs[mi]
	agg.anom = agg.anom[:0]
	j := 0
	for si, svc := range d.baseline.Services {
		m := d.win.Meta(row + si)
		if m.Flags&flagTestable == 0 {
			continue
		}
		m.Flags &^= flagAnom
		if shifted[j] {
			m.Flags |= flagAnom
			agg.anom = append(agg.anom, svc)
		}
		j++
	}
	sort.Strings(agg.anom)
	return nil
}

// Materialize builds the batch production snapshot a one-shot collector
// would have produced from the current window contents: per seen pair, the
// retained arrival-order values (non-finite entries included). It exists for
// the conformance suite — stream.Detect(d, m) must equal
// core.Detect(cfg, baseline, d.Materialize(), m) — and for debugging.
func (d *Detector) Materialize() *metrics.Snapshot {
	out := metrics.NewSnapshot(d.baseline.Metrics, d.baseline.Services)
	for mi, m := range d.baseline.Metrics {
		for si, svc := range d.baseline.Services {
			p := mi*len(d.baseline.Services) + si
			if d.win.Pushed(p) == 0 {
				continue
			}
			out.Data[m][svc] = d.win.Window(p)
		}
	}
	return out
}

// Detect computes the current anomalous set A(metric) over the sliding
// windows, mirroring core.Detect stage by stage: the same strict/tolerant
// completeness rules and min-sample guard, and the alpha-vs-FDR family
// decision made by core.DecideFamily. The answer is read from the metric's
// aggregate after a flush of the pairs the last hops touched.
func (d *Detector) Detect(ctx context.Context, metric string) (*core.Detection, error) {
	if err := d.flush(ctx); err != nil {
		return nil, err
	}
	return d.detect(metric)
}

// DetectAll runs Detect for every baseline metric after a single flush. The
// result is aligned with baseline.Metrics by index; on failure the error is
// the first failing metric's.
func (d *Detector) DetectAll(ctx context.Context) ([]*core.Detection, error) {
	return d.detectEach(ctx, d.baseline.Metrics)
}

// detectEach flushes once, then detects each named metric in order,
// stopping at the first error.
func (d *Detector) detectEach(ctx context.Context, names []string) ([]*core.Detection, error) {
	if err := d.flush(ctx); err != nil {
		return nil, err
	}
	out := make([]*core.Detection, len(names))
	for i, m := range names {
		det, err := d.detect(m)
		if err != nil {
			return nil, err
		}
		out[i] = det
	}
	return out, nil
}

// detect reads a metric's flushed aggregate. Strict mode refuses a family
// that does not cover every baseline service, as batch strict mode does.
func (d *Detector) detect(metric string) (*core.Detection, error) {
	mi, ok := d.metricIndex[metric]
	if !ok {
		if d.tolerant {
			// Batch: production.SeriesOK misses every pair -> empty family.
			return &core.Detection{Anomalous: []string{}, Tested: 0}, nil
		}
		return nil, fmt.Errorf("metrics: snapshot has no metric %q", metric)
	}
	agg := &d.aggs[mi]
	if !d.tolerant && agg.tested < len(d.baseline.Services) {
		return nil, d.strictError(mi)
	}
	return &core.Detection{
		Anomalous: append(make([]string, 0, len(agg.anom)), agg.anom...),
		Tested:    agg.tested,
	}, nil
}

// strictError rebuilds the error batch strict mode reports for metric mi's
// incomplete family. Completeness is checked before any test, in baseline
// service order: the first pair the baseline lacks or that was never
// observed; failing that, the first pair whose test fails.
func (d *Detector) strictError(mi int) error {
	metric := d.baseline.Metrics[mi]
	row := mi * len(d.baseline.Services)
	for si, svc := range d.baseline.Services {
		if _, ok := d.baseline.SeriesOK(metric, svc); !ok {
			return fmt.Errorf("metrics: snapshot metric %q has no service %q", metric, svc)
		}
		if d.win.Pushed(row+si) == 0 {
			return fmt.Errorf("stream: no production window for metric %q service %q", metric, svc)
		}
	}
	for si, svc := range d.baseline.Services {
		if d.win.Meta(row+si).Flags&flagTestable != 0 {
			continue
		}
		if _, err := d.pvalue(row + si); err != nil {
			return fmt.Errorf("stream: anomaly test %s on %s: %w", metric, svc, err)
		}
	}
	return fmt.Errorf("stream: metric %q tested %d of %d services", metric, d.aggs[mi].tested, len(d.baseline.Services))
}
