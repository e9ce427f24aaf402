package stream

import (
	"fmt"
	"time"

	"causalfl/internal/sim"
	"causalfl/internal/telemetry"
)

// SvcAggStats is one service's ingest accounting: every sample handed to the
// aggregator ends up in exactly one of Accepted, OutOfOrder or (later) Dead.
type SvcAggStats struct {
	// Accepted counts samples buffered for window assembly.
	Accepted uint64 `json:"accepted"`
	// OutOfOrder counts samples rejected because their stamp was not
	// strictly later than everything previously accepted for the service.
	// A well-behaved producer (the Sampler drains in ascending tick order)
	// never trips this; a misbehaving or replaying one does, and the
	// rejection is counted instead of killing the pipeline.
	OutOfOrder uint64 `json:"out_of_order"`
	// Dead counts non-gap samples that were trimmed without contributing
	// to any emitted window: stale arrivals behind the window cursor, and
	// recovery samples whose gap span straddles a window boundary (their
	// mass cannot be split, so the affected windows report under-coverage
	// instead). These were silently discarded before accounting existed.
	Dead uint64 `json:"dead"`
	// Windows counts completed windows emitted for the service.
	Windows uint64 `json:"windows"`
}

// add accumulates o into s.
func (s *SvcAggStats) add(o SvcAggStats) {
	s.Accepted += o.Accepted
	s.OutOfOrder += o.OutOfOrder
	s.Dead += o.Dead
	s.Windows += o.Windows
}

// AggStats is the aggregator's ingest accounting: totals across services plus
// the per-service breakdown.
type AggStats struct {
	SvcAggStats
	// PerService breaks the totals down by service name.
	PerService map[string]SvcAggStats `json:"per_service,omitempty"`
}

// Aggregator turns per-service telemetry.Sample ticks into completed hopping
// windows incrementally. It is the streaming counterpart of
// telemetry.HoppingWindows: feed it samples as they are drained and it emits
// exactly the windows the batch function would emit over the materialized
// prefix, in the same order, with bit-identical sums (counter deltas are
// added in the same ascending-timestamp order).
//
// Like the batch function, the window grid is aligned per service to the
// start of its first sample's interval, and the sampling interval is learned
// from the first two stamps — so an Aggregator emits nothing until a service
// has delivered two samples.
//
// Robustness contract: a misbehaving producer cannot corrupt emitted windows
// or kill the stream. Samples that arrive out of order are dropped and
// counted (SvcAggStats.OutOfOrder) — the window cursor only moves forward,
// so a replayed or time-warped sample can never resurrect an already-emitted
// window. Samples that arrive too late to fall into any future window are
// buffered, trimmed, and counted as dead (SvcAggStats.Dead). Stats exposes
// the accounting.
type Aggregator struct {
	length, hop time.Duration
	// svcs is the per-service state, by service index; names and index
	// map between indices and names. A Pipeline's aggregator holds the
	// model's services from the start; a standalone one adds each name the
	// first time a tick carries it.
	svcs  []svcWindows
	names []string
	index map[string]int
	// done is IngestTick's result, cleared and refilled on every call.
	done map[string][]telemetry.Window
}

// bufSample is one buffered sample plus its contribution flag, which feeds
// the dead-sample accounting at trim time.
type bufSample struct {
	s telemetry.Sample
	// used marks that the sample's deltas were summed into at least one
	// emitted window. A sample trimmed with used still false carried data
	// that reached no window.
	used bool
}

// svcWindows is one service's buffered tail and window cursor.
type svcWindows struct {
	// buf holds the samples that can still contribute to an unemitted
	// window, ascending by At.
	buf []bufSample
	// interval is the learned sampling cadence; zero until two samples
	// arrived.
	interval sim.Time
	// next is the start of the next window to emit.
	next sim.Time
	// expected is int(length / interval), the batch coverage denominator.
	expected int
	// lastAt is the stamp of the newest accepted sample. It survives
	// trims, so the out-of-order guard keeps rejecting replays even after
	// the buffer has been emptied.
	lastAt sim.Time
	// stats is the service's ingest accounting.
	stats SvcAggStats
	// out holds the windows the latest Ingest returned.
	out []telemetry.Window
	// seen marks a service that some tick has carried, with samples or
	// without: only those have accounting and exported state.
	seen bool
}

// NewAggregator builds an aggregator with the given window geometry; zero
// values select the paper defaults (60s windows every 30s). The validation
// mirrors telemetry.HoppingWindows.
func NewAggregator(length, hop time.Duration) (*Aggregator, error) {
	if length == 0 && hop == 0 {
		length, hop = telemetry.DefaultWindowLength, telemetry.DefaultWindowHop
	}
	if length <= 0 || hop <= 0 {
		return nil, fmt.Errorf("telemetry: window length and hop must be positive (length=%v hop=%v)", length, hop)
	}
	if hop > length {
		return nil, fmt.Errorf("telemetry: hop %v larger than window %v would drop samples", hop, length)
	}
	return &Aggregator{length: length, hop: hop, index: make(map[string]int)}, nil
}

// resolve returns svc's index, adding the service if it is new.
func (a *Aggregator) resolve(svc string) int {
	i, ok := a.index[svc]
	if !ok {
		i = len(a.svcs)
		a.index[svc] = i
		a.names = append(a.names, svc)
		a.svcs = append(a.svcs, svcWindows{})
	}
	return i
}

// Length returns the window length.
func (a *Aggregator) Length() time.Duration { return a.length }

// Hop returns the hop interval.
func (a *Aggregator) Hop() time.Duration { return a.hop }

// Stats returns a copy of the ingest accounting: totals plus the per-service
// breakdown.
func (a *Aggregator) Stats() AggStats {
	out := AggStats{PerService: make(map[string]SvcAggStats, len(a.svcs))}
	for i := range a.svcs {
		if sw := &a.svcs[i]; sw.seen {
			out.PerService[a.names[i]] = sw.stats
			out.SvcAggStats.add(sw.stats)
		}
	}
	return out
}

// Ingest feeds one service's next samples and returns the windows completed
// by them, in start order. Samples must arrive in strictly ascending stamp
// order; ones that do not are dropped and counted, never applied.
//
// The returned slice is the service's own and is reused: it is valid only
// until the next Ingest or IngestTick for the same service, so a caller that
// keeps windows copies them first.
func (a *Aggregator) Ingest(svc string, samples []telemetry.Sample) []telemetry.Window {
	return a.ingest(a.resolve(svc), samples)
}

// ingest is Ingest for the service at index si.
func (a *Aggregator) ingest(si int, samples []telemetry.Sample) []telemetry.Window {
	sw := &a.svcs[si]
	sw.seen = true
	for i := range samples {
		smp := &samples[i] // read in place: a Sample is about 130 bytes
		if sw.stats.Accepted > 0 && smp.At <= sw.lastAt {
			sw.stats.OutOfOrder++
			continue
		}
		sw.buf = append(sw.buf, bufSample{s: *smp})
		sw.lastAt = smp.At
		sw.stats.Accepted++
	}
	if len(sw.buf) == 0 {
		return nil
	}
	if sw.interval == 0 {
		if len(sw.buf) < 2 {
			return nil
		}
		// Same cadence recovery as the batch function: interval from the
		// first two stamps, origin one interval before the first. The
		// out-of-order guard has already enforced strictly ascending
		// stamps, so the interval is positive.
		sw.interval = sw.buf[1].s.At - sw.buf[0].s.At
		sw.next = sw.buf[0].s.At - sw.interval
		sw.expected = int(a.length / time.Duration(sw.interval))
	}

	out := sw.out[:0]
	end := sw.buf[len(sw.buf)-1].s.At
	length := sim.Time(a.length)
	for sw.next+length <= end {
		w := telemetry.Window{Start: sw.next, End: sw.next + length, Expected: sw.expected}
		for i := range sw.buf {
			smp := &sw.buf[i].s // read in place: a Sample is about 130 bytes
			if smp.Missing {
				continue
			}
			span := smp.Span
			if span < 1 {
				span = 1
			}
			// The batch inclusion rule verbatim: the sample's covered
			// stretch (At-span*interval, At] must lie inside the window.
			if smp.At-sim.Time(span)*sw.interval >= w.Start && smp.At <= w.End {
				w.Sum.AddTo(&smp.Deltas)
				w.Covered += span
				sw.buf[i].used = true
			}
		}
		if w.Covered > w.Expected {
			w.Covered = w.Expected
		}
		out = append(out, w)
		sw.next += sim.Time(a.hop)
	}
	sw.out = out
	sw.stats.Windows += uint64(len(out))

	// Trim: a sample stamped at or before the next window start can never
	// satisfy the inclusion rule again (its covered stretch ends at its
	// stamp, which is <= every future window start). A trimmed data sample
	// that fed no window is dead — count it instead of discarding silently.
	keep := 0
	for keep < len(sw.buf) && sw.buf[keep].s.At <= sw.next {
		if !sw.buf[keep].s.Missing && !sw.buf[keep].used {
			sw.stats.Dead++
		}
		keep++
	}
	if keep > 0 {
		sw.buf = append(sw.buf[:0], sw.buf[keep:]...)
	}
	return out
}

// IngestTick feeds one drained tick for every service (service -> samples)
// and returns the completed windows per service, nil when the tick completes
// none. Per-service results are independent, so services go in map order.
// The error is reserved; IngestTick currently never fails.
//
// The returned map and its slices are reused: they are valid only until the
// next IngestTick or Ingest, so a caller that keeps windows copies them
// first.
func (a *Aggregator) IngestTick(tick map[string][]telemetry.Sample) (map[string][]telemetry.Window, error) {
	clear(a.done)
	for svc, samples := range tick {
		if ws := a.ingest(a.resolve(svc), samples); len(ws) > 0 {
			if a.done == nil {
				a.done = make(map[string][]telemetry.Window, len(tick))
			}
			a.done[svc] = ws
		}
	}
	if len(a.done) == 0 {
		return nil, nil
	}
	return a.done, nil
}
