package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's reported metrics by name.
type metricSet map[string]metric

func (m metricSet) put(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// quantile returns the nearest-rank q-quantile of xs (q in [0,1]). An
// empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// layer accumulates the calls a traced replay makes into one public
// function: per-call wall time and heap allocations (runtime.MemStats
// deltas around the call), plus failed calls.
type layer struct {
	durs   []float64 // seconds per call
	allocs []float64 // heap objects allocated per call
	bytes  []float64 // heap bytes allocated per call
	failed int
	// derived marks a difference of measured layers, such as a self time:
	// it makes no calls of its own, so it reports no failures.
	derived bool
}

// call runs f once, charging its wall time and allocations to l, and
// returns the wall time. ReadMemStats stops the world, so it brackets the
// timed interval instead of sitting inside it.
func (l *layer) call(f func() error) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	l.add(d.Seconds(), float64(m1.Mallocs-m0.Mallocs), float64(m1.TotalAlloc-m0.TotalAlloc), err != nil)
	return d
}

func (l *layer) add(secs, allocs, bytes float64, failed bool) {
	l.durs = append(l.durs, secs)
	l.allocs = append(l.allocs, allocs)
	l.bytes = append(l.bytes, bytes)
	if failed {
		l.failed++
	}
}

// scaled returns a copy of l with every per-call figure divided by k: a
// per-batch layer reported per tick.
func (l *layer) scaled(k float64) *layer {
	out := &layer{failed: l.failed}
	for i := range l.durs {
		out.add(l.durs[i]/k, l.allocs[i]/k, l.bytes[i]/k, false)
	}
	return out
}

// minus returns the per-call difference l - parts, for self times: the
// time a call spent outside the sub-calls measured on their own. All
// layers must hold the same number of calls.
func (l *layer) minus(parts ...*layer) *layer {
	out := &layer{derived: true}
	for i := range l.durs {
		d, a, b := l.durs[i], l.allocs[i], l.bytes[i]
		for _, p := range parts {
			d -= p.durs[i]
			a -= p.allocs[i]
			b -= p.bytes[i]
		}
		out.add(d, a, b, false)
	}
	return out
}

func (l *layer) busy() float64 { return sum(l.durs) }

// perCall is the mean wall time per call in seconds.
func (l *layer) perCall() float64 {
	if len(l.durs) == 0 {
		return 0
	}
	return l.busy() / float64(len(l.durs))
}

// timeUnits scales seconds into a layer's reporting unit.
var timeUnits = map[string]float64{"s": 1, "ms": 1e3, "us": 1e6}

// report writes the layer's row: call count, busy time (p50, p99, sum),
// allocations and bytes per call, and failures unless derived. name ends in the unit of
// its percentiles ("_us", "_ms" or "_s"). Layers called once per app have
// too few calls for percentiles (full=false) and report the sum only;
// allocation figures are left out where memory says nothing (noAlloc).
func (l *layer) report(m metricSet, name, unit string, full, noAlloc bool) {
	scale := timeUnits[unit]
	n := float64(len(l.durs))
	m.put(name+".calls", n, "count")
	m.put(name+".busy_ms", l.busy()*1e3, "ms")
	if !l.derived {
		m.put(name+".failed", float64(l.failed), "count")
	}
	if full {
		m.put(name+".p50", quantile(l.durs, 0.50)*scale, unit)
		m.put(name+".p99", quantile(l.durs, 0.99)*scale, unit)
	}
	if !noAlloc && n > 0 {
		m.put(name+".allocs_per_call", sum(l.allocs)/n, "count")
		m.put(name+".bytes_per_call", sum(l.bytes)/n, "B")
	}
}

// coverage writes a workload's coverage row: the share of the untraced
// end-to-end time per operation the layer self-times do not account for,
// and the tracing overhead as a share of the untraced time per operation.
func coverage(m metricSet, leg string, untracedOp, tracedOp, layersOp float64) {
	m.put("coverage."+leg+".remainder_share", (untracedOp-layersOp)/untracedOp, "ratio")
	m.put("coverage."+leg+".overhead_share", (tracedOp-untracedOp)/untracedOp, "ratio")
}

// merge appends o's calls to l.
func (l *layer) merge(o *layer) {
	l.durs = append(l.durs, o.durs...)
	l.allocs = append(l.allocs, o.allocs...)
	l.bytes = append(l.bytes, o.bytes...)
	l.failed += o.failed
	l.derived = l.derived || o.derived
}
