package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/sim"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// Defaults for tenant serving knobs (zero values in TenantConfig select
// them).
const (
	DefaultQueueCap      = 64
	DefaultSnapshotEvery = 16
	DefaultVerdictLog    = 512
)

// maxQueueCap and maxWindowValues bound the knobs a create request sizes
// eager allocations by: the ingest queue's channel, and the detector's
// window slab, which holds 2 × Window values for every (metric, service)
// pair of the model (1<<24 values: 256 MiB of slab).
const (
	maxQueueCap     = 1 << 16
	maxWindowValues = 1 << 24
)

// checkBounds refuses a new tenant's config when it sizes an eager
// allocation past maxQueueCap or maxWindowValues. Only creation applies it:
// a tenant restored on boot keeps the config it was created with.
func checkBounds(name string, cfg TenantConfig, model *core.Model) error {
	cfg = cfg.withDefaults()
	if cfg.QueueCap > maxQueueCap {
		return fmt.Errorf("serve: tenant %q: queue capacity %d > %d", name, cfg.QueueCap, maxQueueCap)
	}
	if pairs := len(model.Metrics) * len(model.Services); pairs > 0 && cfg.Window > maxWindowValues/pairs {
		return fmt.Errorf("serve: tenant %q: window %d over %d metric-service pairs retains more than %d values", name, cfg.Window, pairs, maxWindowValues)
	}
	return nil
}

// maxSampleStamp bounds ingest timestamps (about 146 virtual years in
// nanoseconds). An honest virtual clock starts at zero; a stamp parked next
// to the int64 horizon would overflow the window arithmetic downstream.
const maxSampleStamp = sim.Time(1) << 62

// TenantConfig is a tenant's complete serializable configuration: window
// geometry, metric preset, localizer knobs and serving knobs. It is written
// into every snapshot, so a rebooted server reconstructs the pipeline under
// exactly the configuration the state was exported under — a requirement for
// byte-identical resumption, since the statistical config lives outside
// stream.PipelineState.
//
// Configs from earlier versions may carry "shards" or "sketch_eps". Both are
// accepted and ignored: the flush split follows Workers, and every tenant
// tests against its exact baselines.
type TenantConfig struct {
	// WindowLength / WindowHop set the aggregation grid in nanoseconds;
	// zero selects the paper defaults (60s / 30s).
	WindowLength sim.Time `json:"window_length,omitempty"`
	WindowHop    sim.Time `json:"window_hop,omitempty"`
	// Preset names the metric set (metrics.PresetNames); it must match the
	// model's metric names. Empty selects "raw-all". Presets rather than
	// arbitrary sets because extractor functions are not serializable.
	Preset string `json:"preset,omitempty"`
	// Window, HystK, HystN, Alpha, FDR, MinSamples, Workers and Rule map
	// onto the stream option set (WithWindow, WithHysteresis, ...).
	Window     int           `json:"window"`
	HystK      int           `json:"hyst_k,omitempty"`
	HystN      int           `json:"hyst_n,omitempty"`
	Alpha      float64       `json:"alpha,omitempty"`
	FDR        float64       `json:"fdr,omitempty"`
	MinSamples int           `json:"min_samples,omitempty"`
	Workers    int           `json:"workers,omitempty"`
	Rule       core.VoteRule `json:"rule,omitempty"`
	// QueueCap bounds the ingest queue in batches (one POST = one batch);
	// a full queue sheds with 429. SnapshotEvery snapshots after every N
	// processed batches (counted, not timed — the serving path is walltime-
	// free by project invariant). VerdictLog bounds the retained verdict
	// ring. Zeros select the package defaults; SnapshotEvery < 0 disables
	// periodic snapshots (drain still writes a final one).
	QueueCap      int `json:"queue_cap,omitempty"`
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	VerdictLog    int `json:"verdict_log,omitempty"`
}

// withDefaults resolves zero knobs.
func (c TenantConfig) withDefaults() TenantConfig {
	if c.Preset == "" {
		c.Preset = metrics.SetRawAll
	}
	if c.QueueCap == 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	if c.VerdictLog == 0 {
		c.VerdictLog = DefaultVerdictLog
	}
	return c
}

// streamOptions maps the tenant config onto the stream option set. Window is
// always forwarded (a zero window must be rejected, not defaulted — the
// snapshot contract needs the configured value); the remaining knobs are
// forwarded only when set, so zero values keep the stream defaults and the
// option constructors validate anything out of range.
func (c TenantConfig) streamOptions(set []metrics.Metric) []stream.Option {
	opts := []stream.Option{
		stream.WithMetricSet(set),
		stream.WithGeometry(c.WindowLength, c.WindowHop),
		stream.WithWindow(c.Window),
	}
	if c.HystK != 0 || c.HystN != 0 {
		opts = append(opts, stream.WithHysteresis(c.HystK, c.HystN))
	}
	if c.Alpha != 0 {
		opts = append(opts, stream.WithAlpha(c.Alpha))
	}
	if c.FDR != 0 {
		opts = append(opts, stream.WithFDR(c.FDR))
	}
	if c.MinSamples != 0 {
		opts = append(opts, stream.WithMinSamples(c.MinSamples))
	}
	if c.Workers != 0 {
		opts = append(opts, stream.WithWorkers(c.Workers))
	}
	if c.Rule != 0 {
		opts = append(opts, stream.WithVoteRule(c.Rule))
	}
	return opts
}

// SeqVerdict is one verdict on a tenant's retained timeline, stamped with its
// monotone sequence number. Sequence numbers restart consistently after a
// crash: the counter rewinds with the pipeline state, so a replayed hop gets
// the same number the lost original had.
type SeqVerdict struct {
	Seq     uint64          `json:"seq"`
	Verdict *stream.Verdict `json:"verdict"`
}

// TenantStats is one tenant's serving accounting.
type TenantStats struct {
	Tenant   string               `json:"tenant"`
	Pipeline stream.PipelineStats `json:"pipeline"`
	// QueueCap/QueueLen describe the ingest queue; Shed counts batches
	// rejected with 429 over the tenant's lifetime (restarts included).
	QueueCap  int    `json:"queue_cap"`
	QueueLen  int    `json:"queue_len"`
	Shed      uint64 `json:"shed"`
	Processed uint64 `json:"processed"`
	// Seq is the newest verdict sequence number (0 before the first hop).
	Seq uint64 `json:"seq"`
	// Draining and Failed describe lifecycle state; Failed carries the
	// terminal pipeline error when the tenant has one.
	Draining bool   `json:"draining,omitempty"`
	Failed   string `json:"failed,omitempty"`
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is backpressure: the caller should back off and retry.
	ErrQueueFull = errors.New("serve: ingest queue full")
	// ErrDraining rejects work arriving after shutdown began.
	ErrDraining = errors.New("serve: tenant draining")
)

// job is one unit of tenant work: an ingest batch, a barrier, or both (a
// barrier with snapshot set forces a snapshot at its queue position).
type job struct {
	ticks [][]stream.ServiceSamples
	// barrier, when non-nil, receives the job's outcome; quiesce and
	// forced-snapshot callers block on it to get an ordered flush point.
	barrier  chan error
	snapshot bool
	// gate, when non-nil, parks the consumer until the channel is closed.
	// Test-only: the backpressure suite uses it to hold a queue full at a
	// deterministic point.
	gate chan struct{}
}

// tenant is one hosted pipeline: a bounded queue in front of a single
// consumer goroutine that owns the pipeline, plus the shared bookkeeping the
// HTTP handlers read. The queue channel is never closed — shutdown is
// signalled through the stop channel — so a blocked barrier enqueue can never
// hit a closed-channel panic; it is fenced by done instead.
type tenant struct {
	name  string
	cfg   TenantConfig
	model *core.Model
	set   []metrics.Metric
	store *Store
	// svcs resolves ingest service names to the pipeline's indices.
	svcs *serviceTable

	queue chan job
	stop  chan struct{} // closed once: begin shutdown
	done  chan struct{} // closed by the consumer on exit

	mu        sync.Mutex
	pipe      *stream.Pipeline // owned by the consumer; guarded for stats/export
	closed    bool             // no further enqueues
	killed    bool             // crash simulation: skip the final snapshot
	failed    error            // terminal pipeline error
	shed      uint64
	processed uint64
	seq       uint64
	verdicts  []SeqVerdict  // ring of the last cfg.VerdictLog verdicts
	notify    chan struct{} // closed and replaced when verdicts arrive
	stats     stream.PipelineStats
}

// newTenant builds a tenant and, when snap is non-nil, restores the pipeline
// and counters from it. The caller starts the consumer with go t.run().
func newTenant(name string, cfg TenantConfig, model *core.Model, store *Store, snap *TenantSnapshot) (*tenant, error) {
	if err := ValidTenantName(name); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("serve: tenant %q: nil model", name)
	}
	cfg = cfg.withDefaults()
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("serve: tenant %q: queue capacity %d < 1", name, cfg.QueueCap)
	}
	if cfg.VerdictLog < 1 {
		return nil, fmt.Errorf("serve: tenant %q: verdict log %d < 1", name, cfg.VerdictLog)
	}
	set, err := metrics.Preset(cfg.Preset)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %q: %w", name, err)
	}
	pipe, err := stream.NewPipeline(model, cfg.streamOptions(set)...)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %q: %w", name, err)
	}
	t := &tenant{
		name: name, cfg: cfg, model: model, set: set, store: store, svcs: newServiceTable(pipe.Services()),
		queue:  make(chan job, cfg.QueueCap),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		pipe:   pipe,
		notify: make(chan struct{}),
	}
	if snap != nil {
		if snap.State != nil {
			if err := pipe.RestoreState(snap.State); err != nil {
				return nil, fmt.Errorf("serve: tenant %q: %w", name, err)
			}
		}
		t.seq = snap.Seq
		t.processed = snap.Processed
		t.shed = snap.Shed
		t.stats = pipe.Stats()
	}
	return t, nil
}

// enqueueBatch hands an ingest batch to the consumer without blocking: a full
// queue is the backpressure signal, not a stall.
func (t *tenant) enqueueBatch(ticks [][]stream.ServiceSamples) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return fmt.Errorf("serve: tenant %q failed: %w", t.name, t.failed)
	}
	if t.closed {
		return ErrDraining
	}
	select {
	case t.queue <- job{ticks: ticks}:
		return nil
	default:
		t.shed++
		return ErrQueueFull
	}
}

// barrier enqueues a barrier job (blocking — barriers are control-plane, not
// load) and waits for the consumer to reach it. With snapshot set the
// consumer writes a snapshot at the barrier's queue position. Returns the
// consumer's outcome, or an error if the tenant shut down or ctx expired
// first.
func (t *tenant) barrier(ctx context.Context, snapshot bool) error {
	t.mu.Lock()
	if t.failed != nil {
		err := t.failed
		t.mu.Unlock()
		return fmt.Errorf("serve: tenant %q failed: %w", t.name, err)
	}
	if t.closed {
		t.mu.Unlock()
		return ErrDraining
	}
	t.mu.Unlock()

	j := job{barrier: make(chan error, 1), snapshot: snapshot}
	select {
	case t.queue <- j:
	case <-t.done:
		return ErrDraining
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-j.barrier:
		return err
	case <-t.done:
		// The consumer exited with the barrier still queued (shutdown won
		// the race); report the outcome it would have given.
		select {
		case err := <-j.barrier:
			return err
		default:
			return ErrDraining
		}
	case <-ctx.Done():
		return ctx.Err()
	}
}

// beginShutdown flips the tenant into its terminal mode; the first caller
// wins. With kill set the consumer abandons queued work and skips the final
// snapshot, simulating a crash.
func (t *tenant) beginShutdown(kill bool) {
	t.mu.Lock()
	already := t.closed
	t.closed = true
	if kill {
		t.killed = true
	}
	t.mu.Unlock()
	if !already {
		close(t.stop)
	}
}

// run is the consumer: it owns the pipeline, processes jobs in FIFO order,
// and on shutdown drains the residual queue (graceful) or abandons it
// (killed), then writes the final snapshot unless killed or failed.
func (t *tenant) run() {
	defer close(t.done)
	for {
		select {
		case j := <-t.queue:
			t.process(j)
		case <-t.stop:
			// closed is already set, so the residual queue is finite:
			// sample enqueues are refused, and the only sends still in
			// flight are barriers, which are fenced by done.
			for {
				select {
				case j := <-t.queue:
					if t.isKilled() {
						t.reply(j, ErrDraining)
						continue
					}
					t.process(j)
				default:
					t.mu.Lock()
					skip := t.killed || t.failed != nil
					t.mu.Unlock()
					if !skip {
						t.snapshotNow()
					}
					return
				}
			}
		}
	}
}

func (t *tenant) isKilled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.killed
}

// reply answers a barrier if the job carries one.
func (t *tenant) reply(j job, err error) {
	if j.barrier != nil {
		j.barrier <- err
	}
}

// process runs one job through the pipeline and updates the shared
// bookkeeping. A pipeline error is terminal: the tenant stops accepting work
// and its (possibly inconsistent) state is never snapshotted — the on-disk
// snapshot keeps the last good state.
func (t *tenant) process(j job) {
	if j.gate != nil {
		<-j.gate
	}
	if t.failedErr() != nil {
		t.reply(j, t.failedErr())
		return
	}
	var emitted []SeqVerdict
	for _, tick := range j.ticks {
		vs, err := t.pipe.TickIndexed(context.Background(), tick)
		if err != nil {
			t.mu.Lock()
			t.failed = err
			t.closed = true
			t.mu.Unlock()
			t.reply(j, err)
			return
		}
		for _, v := range vs {
			emitted = append(emitted, SeqVerdict{Verdict: v})
		}
	}

	t.mu.Lock()
	if len(j.ticks) > 0 {
		t.processed++
	}
	for i := range emitted {
		t.seq++
		emitted[i].Seq = t.seq
	}
	t.verdicts = append(t.verdicts, emitted...)
	if over := len(t.verdicts) - t.cfg.VerdictLog; over > 0 {
		t.verdicts = append(t.verdicts[:0], t.verdicts[over:]...)
	}
	t.stats = t.pipe.Stats()
	processed := t.processed
	if len(emitted) > 0 {
		close(t.notify)
		t.notify = make(chan struct{})
	}
	t.mu.Unlock()

	var err error
	if j.snapshot || (len(j.ticks) > 0 && t.cfg.SnapshotEvery > 0 && processed%uint64(t.cfg.SnapshotEvery) == 0) {
		err = t.snapshotNow()
	}
	t.reply(j, err)
}

func (t *tenant) failedErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}

// snapshotNow exports the pipeline state and persists it atomically. Called
// only from the consumer goroutine, which owns the pipeline; the lock is held
// just long enough to capture a counter-consistent view.
func (t *tenant) snapshotNow() error {
	t.mu.Lock()
	ts := &TenantSnapshot{
		Version:   SnapshotVersion,
		Tenant:    t.name,
		Config:    t.cfg,
		Model:     t.model,
		State:     t.pipe.ExportState(),
		Seq:       t.seq,
		Processed: t.processed,
		Shed:      t.shed,
	}
	t.mu.Unlock()
	return t.store.Save(ts)
}

// verdictsSince returns retained verdicts with sequence numbers in
// (since, since+max], the newest retained sequence number, whether the
// requested range was truncated (since predates the ring), and the channel
// closed on the next verdict arrival, for long-polling. All four come from
// one critical section: a verdict landing after this read closes the
// returned channel, so a poller that found nothing new cannot miss it. The
// caller must also select on its request context: the serving path is
// walltime-free, so the poll deadline is the client's.
func (t *tenant) verdictsSince(since uint64, max int) (vs []SeqVerdict, newest uint64, truncated bool, next <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	newest = t.seq
	if len(t.verdicts) > 0 && since+1 < t.verdicts[0].Seq {
		truncated = true
	} else if len(t.verdicts) == 0 && since < t.seq {
		truncated = true
	}
	for _, sv := range t.verdicts {
		if sv.Seq <= since {
			continue
		}
		vs = append(vs, sv)
		if max > 0 && len(vs) >= max {
			break
		}
	}
	return vs, newest, truncated, t.notify
}

// snapshotStats returns the tenant's serving accounting.
func (t *tenant) snapshotStats() TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TenantStats{
		Tenant:    t.name,
		Pipeline:  t.stats,
		QueueCap:  t.cfg.QueueCap,
		QueueLen:  len(t.queue),
		Shed:      t.shed,
		Processed: t.processed,
		Seq:       t.seq,
		Draining:  t.closed,
	}
	if t.failed != nil {
		st.Failed = t.failed.Error()
	}
	return st
}

// validateTicks rejects hostile ingest shapes before they reach the queue:
// unknown services, out-of-range stamps, negative spans. Within the first
// invalid tick the error names the first invalid service in name order, so
// it does not depend on the order of the tick's keys.
func (t *tenant) validateTicks(b ingestBatch) error {
	unknown := b.unknown
	for k, tick := range b.ticks {
		var name string
		var err error
		if len(unknown) > 0 && unknown[0].tick == k {
			name = unknown[0].name
			err = fmt.Errorf("serve: unknown service %q (model has %v)", name, t.model.Services)
			unknown = unknown[1:]
		}
		for _, e := range tick {
			svc := t.svcs.names[e.Service]
			if err != nil && svc > name {
				continue
			}
			if serr := validateService(svc, e.Samples); serr != nil {
				name, err = svc, serr
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// validateService checks one service's samples of a tick.
func validateService(svc string, samples []telemetry.Sample) error {
	for i := range samples {
		smp := &samples[i] // read in place: a Sample is about 130 bytes
		if smp.At < 0 || smp.At >= maxSampleStamp {
			return fmt.Errorf("serve: sample stamp %v for %q out of range", smp.At, svc)
		}
		if smp.Span < 0 {
			return fmt.Errorf("serve: negative sample span %d for %q", smp.Span, svc)
		}
	}
	return nil
}
