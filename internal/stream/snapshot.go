package stream

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"causalfl/internal/sim"
	"causalfl/internal/telemetry"
)

// This file is the detector-state codec: a versioned, JSON-serializable
// snapshot of a Pipeline's complete dynamic state — the incremental KS ring
// buffers and order-statistics indexes (rebuilt from the retained
// arrival-order windows), the aggregator's buffered tails, window cursors and
// drop accounting, the hysteresis history, and the partially-reported pending
// windows. ExportState and RestoreState are exact inverses: a pipeline
// restored from a snapshot emits a verdict timeline byte-identical to one
// that never stopped, which is the crash-recovery guarantee `causalfl serve`
// builds on (and the serve conformance suite enforces).
//
// Hostile input is rejected with errors, never a panic: Validate checks the
// structural invariants an honest exporter maintains, and RestoreState
// re-checks everything that needs the model and window geometry.

// SnapshotVersion is the codec version ExportState writes. RestoreState
// refuses other versions: silently reinterpreting a future or corrupted
// snapshot is how baselines get quietly lost.
const SnapshotVersion = 1

// Float64 is a float64 whose JSON form round-trips non-finite values:
// finite values encode as plain JSON numbers (shortest form that re-parses
// exactly), NaN and the infinities as the strings "NaN", "+Inf" and "-Inf".
// Sliding windows legitimately hold non-finite values (corrupt telemetry
// ages through the ring like any other sample), and encoding/json would
// refuse to serialize them.
type Float64 float64

// MarshalJSON implements json.Marshaler.
func (f Float64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float64) UnmarshalJSON(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("stream: empty float literal")
	}
	if data[0] == '"' {
		switch string(data) {
		case `"NaN"`:
			*f = Float64(math.NaN())
			return nil
		case `"+Inf"`:
			*f = Float64(math.Inf(1))
			return nil
		case `"-Inf"`:
			*f = Float64(math.Inf(-1))
			return nil
		}
		return fmt.Errorf("stream: unknown float literal %s (want \"NaN\", \"+Inf\" or \"-Inf\")", data)
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return fmt.Errorf("stream: parse float %q: %w", data, err)
	}
	*f = Float64(v)
	return nil
}

// CounterState is sim.Counters in snapshot form: the float-valued counters
// go through Float64 so corrupted (non-finite) deltas survive the trip.
type CounterState struct {
	RequestsReceived uint64  `json:"requests_received,omitempty"`
	RequestsSent     uint64  `json:"requests_sent,omitempty"`
	ResponsesOK      uint64  `json:"responses_ok,omitempty"`
	ResponsesErr     uint64  `json:"responses_err,omitempty"`
	ErrorsObserved   uint64  `json:"errors_observed,omitempty"`
	LogMessages      uint64  `json:"log_messages,omitempty"`
	ErrorLogMessages uint64  `json:"error_log_messages,omitempty"`
	CPUSeconds       Float64 `json:"cpu_seconds,omitempty"`
	BusySeconds      Float64 `json:"busy_seconds,omitempty"`
	RxPackets        uint64  `json:"rx_packets,omitempty"`
	TxPackets        uint64  `json:"tx_packets,omitempty"`
	QueueDrops       uint64  `json:"queue_drops,omitempty"`
}

// EncodeCounters converts counters to snapshot form.
func EncodeCounters(c sim.Counters) CounterState {
	return CounterState{
		RequestsReceived: c.RequestsReceived,
		RequestsSent:     c.RequestsSent,
		ResponsesOK:      c.ResponsesOK,
		ResponsesErr:     c.ResponsesErr,
		ErrorsObserved:   c.ErrorsObserved,
		LogMessages:      c.LogMessages,
		ErrorLogMessages: c.ErrorLogMessages,
		CPUSeconds:       Float64(c.CPUSeconds),
		BusySeconds:      Float64(c.BusySeconds),
		RxPackets:        c.RxPackets,
		TxPackets:        c.TxPackets,
		QueueDrops:       c.QueueDrops,
	}
}

// Counters converts back.
func (cs CounterState) Counters() sim.Counters {
	return sim.Counters{
		RequestsReceived: cs.RequestsReceived,
		RequestsSent:     cs.RequestsSent,
		ResponsesOK:      cs.ResponsesOK,
		ResponsesErr:     cs.ResponsesErr,
		ErrorsObserved:   cs.ErrorsObserved,
		LogMessages:      cs.LogMessages,
		ErrorLogMessages: cs.ErrorLogMessages,
		CPUSeconds:       float64(cs.CPUSeconds),
		BusySeconds:      float64(cs.BusySeconds),
		RxPackets:        cs.RxPackets,
		TxPackets:        cs.TxPackets,
		QueueDrops:       cs.QueueDrops,
	}
}

// SampleState is telemetry.Sample in snapshot (and serve ingest-wire) form.
type SampleState struct {
	At      sim.Time     `json:"at"`
	Deltas  CounterState `json:"deltas"`
	Missing bool         `json:"missing,omitempty"`
	Span    int          `json:"span,omitempty"`
	Corrupt bool         `json:"corrupt,omitempty"`
	// Used marks a buffered sample that already contributed to an emitted
	// window (snapshot-only; ignored on the ingest wire).
	Used bool `json:"used,omitempty"`
}

// EncodeSample converts a sample to wire/snapshot form.
func EncodeSample(s telemetry.Sample) SampleState {
	return SampleState{At: s.At, Deltas: EncodeCounters(s.Deltas), Missing: s.Missing, Span: s.Span, Corrupt: s.Corrupt}
}

// Sample converts back (dropping the snapshot-only Used flag).
func (ss SampleState) Sample() telemetry.Sample {
	return telemetry.Sample{At: ss.At, Deltas: ss.Deltas.Counters(), Missing: ss.Missing, Span: ss.Span, Corrupt: ss.Corrupt}
}

// WindowState is telemetry.Window in snapshot form.
type WindowState struct {
	Start    sim.Time     `json:"start"`
	End      sim.Time     `json:"end"`
	Sum      CounterState `json:"sum"`
	Expected int          `json:"expected,omitempty"`
	Covered  int          `json:"covered,omitempty"`
}

// EncodeWindow converts a window to snapshot form.
func EncodeWindow(w telemetry.Window) WindowState {
	return WindowState{Start: w.Start, End: w.End, Sum: EncodeCounters(w.Sum), Expected: w.Expected, Covered: w.Covered}
}

// Window converts back.
func (ws WindowState) Window() telemetry.Window {
	return telemetry.Window{Start: ws.Start, End: ws.End, Sum: ws.Sum.Counters(), Expected: ws.Expected, Covered: ws.Covered}
}

// PairState is one (metric, service) detector state: the retained
// arrival-order sliding window and the lifetime push count. The sorted
// order-statistics index is not persisted — it is a deterministic function of
// the values and is rebuilt on restore.
type PairState struct {
	Values []Float64 `json:"values"`
	Pushed int       `json:"pushed"`
}

// AggServiceState is one service's aggregator state: buffered tail, learned
// cadence, window cursor and ingest accounting.
type AggServiceState struct {
	Buf      []SampleState `json:"buf,omitempty"`
	Interval sim.Time      `json:"interval,omitempty"`
	Next     sim.Time      `json:"next,omitempty"`
	Expected int           `json:"expected,omitempty"`
	LastAt   sim.Time      `json:"last_at,omitempty"`
	Stats    SvcAggStats   `json:"stats"`
}

// PendingState is one window start awaiting reports from the remaining
// services: the per-service windows collected so far.
type PendingState struct {
	Start   sim.Time               `json:"start"`
	Windows map[string]WindowState `json:"windows"`
}

// PipelineState is the complete serializable dynamic state of a Pipeline.
type PipelineState struct {
	Version int `json:"version"`
	// Length and Hop echo the window geometry and Window the sliding-window
	// length the state was exported under; RestoreState refuses a pipeline
	// configured differently (the state would silently mean something else).
	Length sim.Time `json:"length"`
	Hop    sim.Time `json:"hop"`
	Window int      `json:"window"`
	// Aggregator is the per-service window-assembly state.
	Aggregator map[string]AggServiceState `json:"aggregator,omitempty"`
	// Pairs is metric -> service -> detector state, present only for pairs
	// that observed at least one production value.
	Pairs map[string]map[string]PairState `json:"pairs,omitempty"`
	// History is the hysteresis window: the candidate sets of the most
	// recent voted hops, oldest first, each sorted.
	History [][]string `json:"history,omitempty"`
	// Pending lists partially-reported window starts in ascending order.
	Pending []PendingState `json:"pending,omitempty"`
	// Hops and LastVerdictAt are the verdict counters.
	Hops          uint64   `json:"hops,omitempty"`
	LastVerdictAt sim.Time `json:"last_verdict_at,omitempty"`
}

// Validate checks the structural invariants an honest ExportState maintains,
// without needing the model or pipeline configuration (RestoreState checks
// those). It never panics on arbitrary decoded input.
func (st *PipelineState) Validate() error {
	if st == nil {
		return fmt.Errorf("stream: nil pipeline state")
	}
	if st.Version != SnapshotVersion {
		return fmt.Errorf("stream: snapshot version %d, this build reads %d", st.Version, SnapshotVersion)
	}
	if st.Length <= 0 || st.Hop <= 0 || st.Hop > st.Length || st.Length >= maxSnapshotStamp {
		return fmt.Errorf("stream: snapshot window geometry invalid (length=%v hop=%v)", st.Length, st.Hop)
	}
	if st.Window < 1 {
		return fmt.Errorf("stream: snapshot sliding window %d < 1", st.Window)
	}
	for svc, as := range st.Aggregator {
		if err := as.validate(st.Length); err != nil {
			return fmt.Errorf("stream: snapshot aggregator %q: %w", svc, err)
		}
	}
	for m, bySvc := range st.Pairs {
		for svc, ps := range bySvc {
			if ps.Pushed < 1 {
				return fmt.Errorf("stream: snapshot pair %s/%s: pushed %d < 1", m, svc, ps.Pushed)
			}
			want := ps.Pushed
			if want > st.Window {
				want = st.Window
			}
			if len(ps.Values) != want {
				return fmt.Errorf("stream: snapshot pair %s/%s: %d retained values, %d pushed into window %d wants %d",
					m, svc, len(ps.Values), ps.Pushed, st.Window, want)
			}
		}
	}
	for i, set := range st.History {
		if !sort.StringsAreSorted(set) {
			return fmt.Errorf("stream: snapshot history[%d] not sorted", i)
		}
		for j, s := range set {
			if s == "" {
				return fmt.Errorf("stream: snapshot history[%d] has an empty service name", i)
			}
			if j > 0 && set[j-1] == s {
				return fmt.Errorf("stream: snapshot history[%d] repeats %q", i, s)
			}
		}
	}
	var prev sim.Time
	for i, pe := range st.Pending {
		if pe.Start <= -maxSnapshotStamp || pe.Start >= maxSnapshotStamp {
			return fmt.Errorf("stream: snapshot pending start %v out of range", pe.Start)
		}
		if i > 0 && pe.Start <= prev {
			return fmt.Errorf("stream: snapshot pending starts not strictly ascending at %v", pe.Start)
		}
		prev = pe.Start
		if len(pe.Windows) == 0 {
			return fmt.Errorf("stream: snapshot pending %v has no windows", pe.Start)
		}
		for svc, ws := range pe.Windows {
			if svc == "" {
				return fmt.Errorf("stream: snapshot pending %v has an empty service name", pe.Start)
			}
			if ws.Start != pe.Start {
				return fmt.Errorf("stream: snapshot pending %v: window for %q starts at %v", pe.Start, svc, ws.Start)
			}
			if ws.End != ws.Start+st.Length {
				return fmt.Errorf("stream: snapshot pending %v: window for %q ends at %v, want %v", pe.Start, svc, ws.End, ws.Start+st.Length)
			}
			if ws.Expected < 0 || ws.Covered < 0 {
				return fmt.Errorf("stream: snapshot pending %v: negative coverage for %q", pe.Start, svc)
			}
		}
	}
	return nil
}

// maxSnapshotStamp bounds every timestamp and duration a snapshot may carry
// (about 146 virtual years in nanoseconds). Honest streams start their
// virtual clock at zero and never get near it; a hostile snapshot with a
// cursor parked next to the int64 horizon would overflow the window-emission
// arithmetic after restore and spin the aggregator for 2^63/hop iterations.
const maxSnapshotStamp = sim.Time(1) << 62

// validate checks one service's aggregator state against the snapshot's
// window length.
func (as *AggServiceState) validate(length sim.Time) error {
	if as.Interval < 0 || as.Expected < 0 || as.LastAt < 0 {
		return fmt.Errorf("negative cadence fields (interval=%v expected=%d last_at=%v)", as.Interval, as.Expected, as.LastAt)
	}
	if as.Interval >= maxSnapshotStamp || as.LastAt >= maxSnapshotStamp || as.Next <= -maxSnapshotStamp || as.Next >= maxSnapshotStamp {
		return fmt.Errorf("cadence fields out of range (interval=%v next=%v last_at=%v)", as.Interval, as.Next, as.LastAt)
	}
	if as.Interval == 0 {
		if len(as.Buf) > 1 {
			return fmt.Errorf("%d buffered samples but no learned interval", len(as.Buf))
		}
		if as.Next != 0 || as.Expected != 0 {
			return fmt.Errorf("window cursor set before the interval was learned")
		}
	} else {
		// The interval is learned from two accepted samples, and the
		// emission loop runs (at least vacuously) in the same Ingest: the
		// cursor never trails the newest stamp by a full window, and never
		// leads it.
		if as.Stats.Accepted < 2 {
			return fmt.Errorf("learned interval after %d accepted samples", as.Stats.Accepted)
		}
		if as.Next > as.LastAt || as.LastAt >= as.Next+length {
			return fmt.Errorf("window cursor %v inconsistent with newest stamp %v (length %v)", as.Next, as.LastAt, length)
		}
	}
	var prev sim.Time
	for i, bs := range as.Buf {
		if bs.Span < 0 {
			return fmt.Errorf("buf[%d]: negative span %d", i, bs.Span)
		}
		if bs.At <= -maxSnapshotStamp || bs.At >= maxSnapshotStamp {
			return fmt.Errorf("buf[%d]: stamp %v out of range", i, bs.At)
		}
		if i > 0 && bs.At <= prev {
			return fmt.Errorf("buf stamps not strictly ascending at %v", bs.At)
		}
		prev = bs.At
		if as.Interval > 0 && bs.At <= as.Next {
			return fmt.Errorf("buf[%d] at %v is behind the window cursor %v (would have been trimmed)", i, bs.At, as.Next)
		}
	}
	if n := len(as.Buf); n > 0 {
		if as.LastAt != as.Buf[n-1].At {
			return fmt.Errorf("last_at %v does not match newest buffered stamp %v", as.LastAt, as.Buf[n-1].At)
		}
		if as.Stats.Accepted < uint64(n) {
			return fmt.Errorf("accepted %d below %d buffered samples", as.Stats.Accepted, n)
		}
	}
	if as.Stats.Accepted == 0 && (as.LastAt != 0 || len(as.Buf) != 0) {
		return fmt.Errorf("dynamic state without any accepted sample")
	}
	return nil
}

// ExportState captures the pipeline's complete dynamic state. The returned
// state is deep-copied: mutating the pipeline afterwards does not alter it.
func (p *Pipeline) ExportState() *PipelineState {
	st := &PipelineState{
		Version:       SnapshotVersion,
		Length:        sim.Time(p.agg.length),
		Hop:           sim.Time(p.agg.hop),
		Window:        p.loc.det.window,
		Hops:          p.hops,
		LastVerdictAt: p.lastAt,
	}

	for i := range p.agg.svcs {
		sw := &p.agg.svcs[i]
		if !sw.seen {
			continue
		}
		if st.Aggregator == nil {
			st.Aggregator = make(map[string]AggServiceState, len(p.agg.svcs))
		}
		as := AggServiceState{
			Interval: sw.interval,
			Next:     sw.next,
			Expected: sw.expected,
			LastAt:   sw.lastAt,
			Stats:    sw.stats,
		}
		for _, bs := range sw.buf {
			ss := EncodeSample(bs.s)
			ss.Used = bs.used
			as.Buf = append(as.Buf, ss)
		}
		st.Aggregator[p.agg.names[i]] = as
	}

	d := p.loc.det
	for mi, m := range d.baseline.Metrics {
		for si, svc := range d.baseline.Services {
			pair := d.pairIndex(mi, si)
			pushed := d.win.Pushed(pair)
			if pushed == 0 {
				continue
			}
			if st.Pairs == nil {
				st.Pairs = make(map[string]map[string]PairState)
			}
			bySvc := st.Pairs[m]
			if bySvc == nil {
				bySvc = make(map[string]PairState)
				st.Pairs[m] = bySvc
			}
			win := d.win.Window(pair)
			vals := make([]Float64, len(win))
			for i, v := range win {
				vals[i] = Float64(v)
			}
			bySvc[svc] = PairState{Values: vals, Pushed: pushed}
		}
	}

	if p.loc.hyst.filled > 0 {
		st.History = p.loc.hyst.retained()
	}

	for _, pw := range p.pending {
		pe := PendingState{Start: pw.start, Windows: make(map[string]WindowState, pw.n)}
		for si, ok := range pw.reported {
			if ok {
				pe.Windows[p.agg.names[si]] = EncodeWindow(pw.windows[si])
			}
		}
		st.Pending = append(st.Pending, pe)
	}
	return st
}

// RestoreState loads a snapshot into a freshly constructed Pipeline. The
// pipeline must have been built with the same model, metric set and
// configuration the snapshot was exported under: RestoreState verifies
// everything the state itself carries (version, window geometry, sliding
// window, service and metric universe) and rejects mismatches, but the
// statistical configuration (alpha/FDR, hysteresis, vote rule) lives outside
// the state — the caller persists it alongside and rebuilds the pipeline
// from it, as `causalfl serve` does.
//
// After a successful restore the pipeline is bit-for-bit equivalent to the
// exporting one: feeding both the same subsequent ticks yields byte-identical
// verdict timelines. On error the pipeline is unusable and must be rebuilt —
// a partially applied snapshot is worse than none.
func (p *Pipeline) RestoreState(st *PipelineState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	if !p.fresh() {
		return fmt.Errorf("stream: restore into a pipeline that already ingested data")
	}
	if sim.Time(p.agg.length) != st.Length || sim.Time(p.agg.hop) != st.Hop {
		return fmt.Errorf("stream: snapshot window geometry %v/%v does not match pipeline %v/%v",
			st.Length, st.Hop, p.agg.length, p.agg.hop)
	}
	// The aggregator's services are the model's: Model.Validate holds the
	// baseline the detector indexes to exactly the model's services.
	d := p.loc.det
	if d.window != st.Window {
		return fmt.Errorf("stream: snapshot sliding window %d does not match pipeline %d", st.Window, d.window)
	}
	for svc, as := range st.Aggregator {
		si, ok := p.agg.index[svc]
		if !ok {
			return fmt.Errorf("stream: snapshot aggregator names unknown service %q", svc)
		}
		if as.Interval > 0 {
			if want := int(sim.Time(p.agg.length) / as.Interval); as.Expected != want {
				return fmt.Errorf("stream: snapshot aggregator %q: expected %d does not match length %v / interval %v",
					svc, as.Expected, p.agg.length, as.Interval)
			}
		}
		sw := &p.agg.svcs[si]
		*sw = svcWindows{
			interval: as.Interval,
			next:     as.Next,
			expected: as.Expected,
			lastAt:   as.LastAt,
			stats:    as.Stats,
			seen:     true,
		}
		for _, ss := range as.Buf {
			sw.buf = append(sw.buf, bufSample{s: ss.Sample(), used: ss.Used})
		}
	}

	for m, bySvc := range st.Pairs {
		mi, ok := d.metricIndex[m]
		if !ok {
			return fmt.Errorf("stream: snapshot pair metric %q not in model", m)
		}
		for svc, ps := range bySvc {
			pair, ok := d.pair(mi, svc)
			if !ok {
				return fmt.Errorf("stream: snapshot pair %s/%s has no usable baseline in the model", m, svc)
			}
			vals := make([]float64, len(ps.Values))
			for i, v := range ps.Values {
				vals[i] = float64(v)
			}
			if err := d.win.Restore(pair, vals, ps.Pushed); err != nil {
				return fmt.Errorf("stream: snapshot pair %s/%s: %w", m, svc, err)
			}
			// Mark the restored pair for the next flush so the incremental
			// detection caches are rebuilt from the restored window.
			d.markDirty(pair)
		}
	}

	if len(st.History) > p.loc.hyst.horizon() {
		return fmt.Errorf("stream: snapshot history holds %d hops, hysteresis horizon is %d", len(st.History), p.loc.hyst.horizon())
	}
	for i, names := range st.History {
		for _, s := range names {
			if _, ok := p.agg.index[s]; !ok {
				return fmt.Errorf("stream: snapshot history[%d] names unknown service %q", i, s)
			}
		}
	}
	for _, names := range st.History {
		p.loc.hyst.push(names)
	}

	for _, pe := range st.Pending {
		if len(pe.Windows) >= len(p.agg.svcs) {
			return fmt.Errorf("stream: snapshot pending %v is fully reported; it should have been emitted", pe.Start)
		}
		pw := p.slot(pe.Start)
		for svc, ws := range pe.Windows {
			si, ok := p.agg.index[svc]
			if !ok {
				return fmt.Errorf("stream: snapshot pending %v names unknown service %q", pe.Start, svc)
			}
			pw.windows[si] = ws.Window()
			pw.reported[si] = true
		}
		pw.n = len(pe.Windows)
	}

	p.hops = st.Hops
	p.lastAt = st.LastVerdictAt
	return nil
}

// fresh reports whether the pipeline has ingested nothing yet.
func (p *Pipeline) fresh() bool {
	if len(p.pending) > 0 || p.hops > 0 {
		return false
	}
	for i := range p.agg.svcs {
		if p.agg.svcs[i].seen {
			return false
		}
	}
	if p.loc.hyst.filled > 0 {
		return false
	}
	d := p.loc.det
	for pair := 0; pair < d.win.Count(); pair++ {
		if d.win.Pushed(pair) > 0 {
			return false
		}
	}
	return true
}
