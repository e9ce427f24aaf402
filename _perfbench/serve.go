package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"time"

	"causalfl/internal/apps"
	"causalfl/internal/apps/causalbench"
	"causalfl/internal/apps/robotshop"
	"causalfl/internal/chaos"
	"causalfl/internal/core"
	"causalfl/internal/eval"
	"causalfl/internal/metrics"
	"causalfl/internal/serve"
	"causalfl/internal/sim"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// The serve-mixed workload: one serve.Server behind a loopback HTTP server
// with two tenants. Tenant live is open loop: one POST per telemetry tick at
// liveRate, and a long-poll for the verdict whenever a tick completes a hop.
// Tenant backfill is closed loop: it POSTs backfillBatch ticks at a time and
// waits for the batch's last verdict before sending the next batch. In each
// round the live tenant runs alone for the first half and beside the
// backfill flood for the second.
const (
	liveTenant     = "live"
	backfillTenant = "backfill"

	lapTicks      = 72 // one recorded session: 6 min of 5 s ticks
	injectTick    = lapTicks / 3
	backfillBatch = 64
	liveRate      = 500 // live ticks per second
	// pollDeadline is the client deadline of one verdict long-poll. A poll
	// that reaches it is a stall: counted as a failed operation and
	// re-polled (see README.md, "Known issues").
	pollDeadline = 200 * time.Millisecond
	maxStalls    = 25 // consecutive stalls before the pass gives up

	// Bounds of the traced in-process replay.
	traceLiveTicks = 1500
	traceBatches   = 48
	// snapshotEvery mirrors serve.DefaultSnapshotEvery in the replay.
	snapshotEvery = serve.DefaultSnapshotEvery
)

// session is one tenant's input: a recorded live session in wire form,
// replayed in laps with stamps shifted forward by the lap length.
type session struct {
	tenant string
	model  *core.Model
	cfg    serve.TenantConfig
	opts   []stream.Option // the tenant's pipeline options, for in-process replicas
	lap    []map[string][]stream.SampleState
	wire   []wireTick // lap in pre-encoded form
	lapDur sim.Time
	// hops[i] is how many verdicts tick i completes: the first lap, then
	// the periodic pattern of every later lap.
	first, steady []int
}

// newSession trains a model with quick settings on the app, records one
// session with chaos.Unavailable injected on target a third of the way in,
// and learns which ticks complete a hop. The target is fixed, not drawn
// from the seed: which service fails changes how much telemetry every
// later tick carries, and so the work a run does.
func newSession(ctx context.Context, tenant string, build apps.Builder, target string, seed int64) (*session, error) {
	cfg := eval.Options{Seed: seed, Quick: true}.Apply(eval.Config{Build: build})
	model, err := eval.Train(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve %s: train: %w", tenant, err)
	}
	ls, err := eval.NewLiveSession(cfg, 1, seed+777)
	if err != nil {
		return nil, err
	}
	live := ls.Config()
	s := &session{
		tenant: tenant,
		model:  model,
		cfg: serve.TenantConfig{
			WindowLength: sim.Time(live.WindowLength),
			WindowHop:    sim.Time(live.WindowHop),
			Preset:       metrics.SetDerivedAll,
			Window:       8,
			FDR:          0.05,
		},
		lapDur: sim.Time(lapTicks * live.SampleInterval),
	}
	set, err := metrics.Preset(s.cfg.Preset)
	if err != nil {
		return nil, err
	}
	s.opts = []stream.Option{
		stream.WithMetricSet(set),
		stream.WithGeometry(live.WindowLength, live.WindowHop),
		stream.WithWindow(s.cfg.Window),
		stream.WithFDR(s.cfg.FDR),
	}
	for i := 0; i < lapTicks; i++ {
		if i == injectTick {
			if err := ls.Inject(target, chaos.Unavailable()); err != nil {
				return nil, err
			}
		}
		samples := ls.Advance(live.SampleInterval)
		wire := make(map[string][]stream.SampleState, len(samples))
		for svc, ss := range samples {
			enc := make([]stream.SampleState, len(ss))
			for j, smp := range ss {
				enc[j] = stream.EncodeSample(smp)
			}
			wire[svc] = enc
		}
		s.lap = append(s.lap, wire)
		wt, err := newWireTick(wire)
		if err != nil {
			return nil, err
		}
		s.wire = append(s.wire, wt)
	}
	// The pre-encoded form must read as encoding/json writes it, across a
	// lap boundary.
	want, err := json.Marshal(map[string]any{"ticks": []map[string][]stream.SampleState{s.tick(lapTicks - 1), s.tick(lapTicks)}})
	if err != nil {
		return nil, err
	}
	if got := s.body(lapTicks-1, lapTicks+1); !bytes.Equal(got, want) {
		return nil, fmt.Errorf("serve %s: pre-encoded ticks differ from encoding/json", tenant)
	}
	counts, err := s.reference(ctx, 2*lapTicks, nil)
	if err != nil {
		return nil, err
	}
	s.first, s.steady = counts[:lapTicks], counts[lapTicks:]
	return s, nil
}

// tick returns tick i of the endless replay in wire form.
func (s *session) tick(i int) map[string][]stream.SampleState {
	shift := sim.Time(i/lapTicks) * s.lapDur
	src := s.lap[i%lapTicks]
	out := make(map[string][]stream.SampleState, len(src))
	for svc, ss := range src {
		cp := append([]stream.SampleState(nil), ss...)
		for j := range cp {
			cp[j].At += shift
		}
		out[svc] = cp
	}
	return out
}

// samples decodes tick i as the ingest handler does.
func (s *session) samples(i int) map[string][]telemetry.Sample {
	wire := s.tick(i)
	out := make(map[string][]telemetry.Sample, len(wire))
	for svc, enc := range wire {
		ss := make([]telemetry.Sample, len(enc))
		for j, one := range enc {
			ss[j] = one.Sample()
		}
		out[svc] = ss
	}
	return out
}

// hops is the number of verdicts tick i completes.
func (s *session) hops(i int) int {
	if i < lapTicks {
		return s.first[i]
	}
	return s.steady[i%lapTicks]
}

// body encodes ticks [from, to) as an ingest request.
func (s *session) body(from, to int) []byte {
	buf := append(make([]byte, 0, 2400*(to-from)), `{"ticks":[`...)
	for i := from; i < to; i++ {
		if i > from {
			buf = append(buf, ',')
		}
		buf = s.wire[i%lapTicks].append(buf, sim.Time(i/lapTicks)*s.lapDur)
	}
	return append(buf, "]}"...)
}

// wireTick is one recorded tick in ingest wire form, encoded once: per
// service in key order, its JSON key and each sample's JSON split around
// its stamp. A later lap is then encoded by writing shifted stamps between
// the fixed parts, so the client spends its time sending, not encoding.
type wireTick struct {
	keys   [][]byte     // `"service":`
	stamps [][]sim.Time // per service, per sample
	tails  [][][]byte   // per service, per sample: the JSON after the stamp
}

func newWireTick(tick map[string][]stream.SampleState) (wireTick, error) {
	var wt wireTick
	svcs := make([]string, 0, len(tick))
	for svc := range tick {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	for _, svc := range svcs {
		key, err := json.Marshal(svc)
		if err != nil {
			return wt, err
		}
		var stamps []sim.Time
		var tails [][]byte
		for _, smp := range tick[svc] {
			blob, err := json.Marshal(smp)
			if err != nil {
				return wt, err
			}
			head := strconv.AppendInt([]byte(`{"at":`), int64(smp.At), 10)
			if !bytes.HasPrefix(blob, head) {
				return wt, fmt.Errorf("wire sample %s does not start with its stamp", blob)
			}
			stamps = append(stamps, smp.At)
			tails = append(tails, blob[len(head):])
		}
		wt.keys = append(wt.keys, append(key, ':'))
		wt.stamps = append(wt.stamps, stamps)
		wt.tails = append(wt.tails, tails)
	}
	return wt, nil
}

// append writes the tick with every stamp moved forward by shift.
func (wt wireTick) append(buf []byte, shift sim.Time) []byte {
	buf = append(buf, '{')
	for k, key := range wt.keys {
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = append(append(buf, key...), '[')
		for j, at := range wt.stamps[k] {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(append(buf, `{"at":`...), int64(at+shift), 10)
			buf = append(buf, wt.tails[k][j]...)
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// reference runs an in-process stream.Pipeline over ticks [0, n) and
// returns the verdicts each tick completed. When out is non-nil it also
// receives the serialized SeqVerdict timeline the server must reproduce.
func (s *session) reference(ctx context.Context, n int, out *[][]byte) ([]int, error) {
	pipe, err := stream.NewPipeline(s.model, s.opts...)
	if err != nil {
		return nil, err
	}
	counts := make([]int, n)
	var seq uint64
	for i := 0; i < n; i++ {
		vs, err := pipe.Tick(ctx, s.samples(i))
		if err != nil {
			return nil, err
		}
		counts[i] = len(vs)
		if out == nil {
			continue
		}
		for _, v := range vs {
			seq++
			blob, err := json.Marshal(serve.SeqVerdict{Seq: seq, Verdict: v})
			if err != nil {
				return nil, err
			}
			*out = append(*out, blob)
		}
	}
	return counts, nil
}

// tenantState is a tenant's progress on the server, carried across passes
// so stamps keep increasing and the timeline check covers every tick sent.
type tenantState struct {
	s    *session
	next int      // next tick index to send
	want int      // verdicts the sent ticks complete
	got  [][]byte // served SeqVerdicts, raw, in sequence order
}

// serveMixed is the serve-mixed workload's state.
type serveMixed struct {
	dir      string
	srv      *serve.Server
	hs       *httptest.Server
	live     *tenantState
	backfill *tenantState

	untraced, traced *servePass
	probes           []float64 // reference-kernel times taken between rounds
	tally
}

// stalls counts the verdict polls that reached their deadline.
func (sm *serveMixed) stalls() int {
	n := 0
	for _, p := range []*servePass{sm.untraced, sm.traced} {
		if p != nil {
			n += p.stalls
		}
	}
	return n
}

// newServeMixed builds both tenants' inputs, boots the server over a
// snapshot directory under workDir and creates the tenants over HTTP.
func newServeMixed(ctx context.Context, workDir string, seed int64) (*serveMixed, error) {
	live, err := newSession(ctx, liveTenant, causalbench.Build, "B", seed)
	if err != nil {
		return nil, err
	}
	backfill, err := newSession(ctx, backfillTenant, robotshop.Build, "payment", seed+1)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	sm := &serveMixed{dir: dir, live: &tenantState{s: live}, backfill: &tenantState{s: backfill}}
	store, err := serve.NewStore(dir)
	if err != nil {
		sm.close()
		return nil, err
	}
	sm.srv, err = serve.NewServer(serve.Options{Store: store})
	if err != nil {
		sm.close()
		return nil, err
	}
	sm.hs = httptest.NewServer(sm.srv.Handler())
	c := newClient(sm.hs.URL)
	for _, ts := range []*tenantState{sm.live, sm.backfill} {
		blob, err := json.Marshal(map[string]any{"config": ts.s.cfg, "model": ts.s.model})
		if err != nil {
			sm.close()
			return nil, err
		}
		code, _, err := c.do(ctx, http.MethodPut, "/v1/tenants/"+ts.s.tenant, blob)
		if err == nil && code != http.StatusCreated {
			err = fmt.Errorf("create tenant %s: status %d", ts.s.tenant, code)
		}
		if err != nil {
			sm.close()
			return nil, err
		}
	}
	return sm, nil
}

// close stops the server and removes the snapshot directory. It may be
// called again.
func (sm *serveMixed) close() {
	if sm.hs != nil {
		sm.hs.Close()
		sm.hs = nil
	}
	if sm.srv != nil {
		sm.srv.Kill()
		sm.srv = nil
	}
	os.RemoveAll(sm.dir)
}

// client is one client goroutine's HTTP client: one connection, reused.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do sends one request and returns the status and the whole body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return resp.StatusCode, blob, err
}

// servePass is what the HTTP passes over both tenants measured. The
// untraced one is added to round by round. In each round the live tenant
// runs alone for the first half, and the backfill tenant floods the server
// beside it for the second.
type servePass struct {
	liveLat   []float64 // alone: from the POST of a hop-completing tick to its verdict
	floodLat  []float64 // as liveLat, while the backfill tenant floods the server
	sendLag   []float64 // how late the open-loop generator sent
	liveRTT   []float64 // live POST round trips
	batchRTT  []float64 // backfill POST round trips
	ticks     int       // backfill ticks whose verdicts all arrived
	wall      float64   // backfill time from the first POST to the last verdict
	batchTime []float64 // from each batch's POST to its last verdict
	batchCPU  []float64 // the process's CPU time over the same interval
	depthMax  int       // deepest tenant queue seen (traced pass only)
	attempted int
	failed    int
	stalls    int
}

// add appends q to p.
func (p *servePass) add(q *servePass) {
	p.liveLat = append(p.liveLat, q.liveLat...)
	p.floodLat = append(p.floodLat, q.floodLat...)
	p.sendLag = append(p.sendLag, q.sendLag...)
	p.liveRTT = append(p.liveRTT, q.liveRTT...)
	p.batchRTT = append(p.batchRTT, q.batchRTT...)
	p.batchTime = append(p.batchTime, q.batchTime...)
	p.batchCPU = append(p.batchCPU, q.batchCPU...)
	p.ticks += q.ticks
	p.wall += q.wall
	p.depthMax = max(p.depthMax, q.depthMax)
	p.stalls += q.stalls
}

// await long-polls the tenant until its timeline holds ts.want verdicts.
func (p *servePass) await(ctx context.Context, c *client, ts *tenantState) error {
	stalls := 0
	for len(ts.got) < ts.want {
		p.attempted++
		pctx, cancel := context.WithTimeout(ctx, pollDeadline)
		code, blob, err := c.do(pctx, http.MethodGet,
			fmt.Sprintf("/v1/tenants/%s/verdicts?since=%d&wait=1", ts.s.tenant, len(ts.got)), nil)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			p.failed++
			p.stalls++
			if stalls++; stalls > maxStalls {
				return fmt.Errorf("serve %s: verdict %d never arrived", ts.s.tenant, ts.want)
			}
			continue
		}
		if err != nil || code != http.StatusOK {
			p.failed++
			return fmt.Errorf("serve %s: poll: status %d: %v", ts.s.tenant, code, err)
		}
		stalls = 0
		var resp struct {
			Verdicts []json.RawMessage `json:"verdicts"`
		}
		if err := json.Unmarshal(blob, &resp); err != nil {
			p.failed++
			return err
		}
		for _, v := range resp.Verdicts {
			ts.got = append(ts.got, v)
		}
	}
	return nil
}

// post sends one ingest batch and records its round trip.
func (p *servePass) post(ctx context.Context, c *client, ts *tenantState, body []byte, rtt *[]float64) error {
	p.attempted++
	t0 := time.Now()
	code, _, err := c.do(ctx, http.MethodPost, "/v1/tenants/"+ts.s.tenant+"/ingest", body)
	*rtt = append(*rtt, time.Since(t0).Seconds())
	if err != nil || code != http.StatusAccepted {
		p.failed++
		return fmt.Errorf("serve %s: ingest: status %d: %v", ts.s.tenant, code, err)
	}
	return nil
}

// runLive is the open-loop client: tick i is due at start + i/liveRate.
// Verdicts due in the first half of d are charged to the alone phase. A
// latency runs from the POST, not from the due time: waking a sleeping
// generator takes as long as the host takes to run an idle processor
// again, which says nothing about the server (send_lag reports it).
func (p *servePass) runLive(ctx context.Context, c *client, ts *tenantState, start time.Time, d time.Duration) error {
	period := time.Second / liveRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if due.Sub(start) >= d {
			return nil
		}
		body := ts.s.body(ts.next, ts.next+1)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		p.sendLag = append(p.sendLag, sent.Sub(due).Seconds())
		if err := p.post(ctx, c, ts, body, &p.liveRTT); err != nil {
			return err
		}

		hops := ts.s.hops(ts.next)
		ts.next++
		ts.want += hops
		if hops > 0 {
			if err := p.await(ctx, c, ts); err != nil {
				return err
			}
			if due.Sub(start) < d/2 {
				p.liveLat = append(p.liveLat, time.Since(sent).Seconds())
			} else {
				p.floodLat = append(p.floodLat, time.Since(sent).Seconds())
			}
		}
	}
}

// runBackfill is the closed-loop client. It joins halfway through d. With
// sample set it reads both tenants' queue depth after every POST.
func (p *servePass) runBackfill(ctx context.Context, c *client, ts *tenantState, start time.Time, d time.Duration, sample bool) error {
	flood := start.Add(d / 2)
	time.Sleep(time.Until(flood))
	for time.Since(start) < d {
		body := ts.s.body(ts.next, ts.next+backfillBatch)
		t0, c0 := time.Now(), cpuTime(clockProcessCPU)
		if err := p.post(ctx, c, ts, body, &p.batchRTT); err != nil {
			return err
		}
		if sample {
			for _, name := range []string{liveTenant, backfillTenant} {
				st, err := tenantStats(ctx, c, name)
				if err != nil {
					return err
				}
				p.depthMax = max(p.depthMax, st.QueueLen)
			}
		}
		for i := ts.next; i < ts.next+backfillBatch; i++ {
			ts.want += ts.s.hops(i)
		}
		ts.next += backfillBatch
		if err := p.await(ctx, c, ts); err != nil {
			return err
		}
		p.ticks += backfillBatch
		p.wall = time.Since(flood).Seconds()
		p.batchTime = append(p.batchTime, time.Since(t0).Seconds())
		p.batchCPU = append(p.batchCPU, (cpuTime(clockProcessCPU) - c0).Seconds())
	}
	return nil
}

func tenantStats(ctx context.Context, c *client, tenant string) (serve.TenantStats, error) {
	var st serve.TenantStats
	code, blob, err := c.do(ctx, http.MethodGet, "/v1/tenants/"+tenant+"/stats", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("stats %s: status %d", tenant, code)
	}
	if err == nil {
		err = json.Unmarshal(blob, &st)
	}
	return st, err
}

// pass drives both clients for d, each on its own goroutine and
// connection, and adds what they measured to p.
func (sm *serveMixed) pass(ctx context.Context, d time.Duration, sample bool, p *servePass) error {
	var live, bf servePass // each goroutine's own record, merged after the join
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- bf.runBackfill(ctx, newClient(sm.hs.URL), sm.backfill, start, d, sample)
	}()
	errLive := live.runLive(ctx, newClient(sm.hs.URL), sm.live, start, d)
	errBackfill := <-done
	p.add(&live)
	p.add(&bf)
	sm.attempted += live.attempted + bf.attempted
	sm.failed += live.failed + bf.failed
	return errors.Join(errLive, errBackfill)
}

// measure runs the untraced pass for d in rounds, then reports its
// end-to-end metrics into e2e or, traced, measures the serve path layer by
// layer into m.
func (sm *serveMixed) measure(ctx context.Context, d time.Duration, traced bool, e2e, m metricSet) error {
	for r := 0; r < rounds; r++ {
		if err := sm.run(ctx, d/rounds); err != nil {
			return err
		}
	}
	if !traced {
		sm.e2e(e2e)
		return nil
	}
	fmt.Println("traced replay:")
	return sm.trace(ctx, d, m)
}

// run is one round of the untraced pass the end-to-end metrics come from,
// with the reference kernel run before and after it.
func (sm *serveMixed) run(ctx context.Context, d time.Duration) error {
	if sm.untraced == nil {
		sm.untraced = &servePass{}
	}
	sm.probes = append(sm.probes, refProbe())
	err := sm.pass(ctx, d, false, sm.untraced)
	sm.probes = append(sm.probes, refProbe())
	return err
}

// check compares each tenant's served timeline with an in-process pipeline
// over the same ticks, byte for byte. Every verdict that differs, or is
// missing on either side, is a failed operation.
func (sm *serveMixed) check(ctx context.Context) error {
	for _, ts := range []*tenantState{sm.live, sm.backfill} {
		var want [][]byte
		if _, err := ts.s.reference(ctx, ts.next, &want); err != nil {
			return err
		}
		bad := 0
		for i := 0; i < max(len(want), len(ts.got)); i++ {
			sm.attempted++
			if i >= len(want) || i >= len(ts.got) || !bytes.Equal(want[i], ts.got[i]) {
				bad++
			}
		}
		sm.failed += bad
		sm.wrong += bad
		if bad > 0 {
			fmt.Printf("serve %s: %d of %d verdicts differ from the in-process pipeline\n", ts.s.tenant, bad, len(want))
		}
	}
	return nil
}

// e2e reports the live tenant's median verdict latency alone, and the
// backfill flood's rate over its whole length in ticks per second of the
// process's CPU time, both normalised to the reference core. Not a median
// of per-batch rates: a batch that holds a snapshot save or a GC cycle
// costs about twice what one without does, and a median jumps between the
// two.
func (sm *serveMixed) e2e(m metricSet) {
	p := sm.untraced
	scale := refScale(sm.probes)
	m.put("live_verdict_p50_ms", quantile(p.liveLat, 0.50)*scale*1e3, "ms")
	cpuRate := float64(p.ticks) / sum(p.batchCPU)
	m.put("backfill_ticks_per_cpu_s", cpuRate/scale, "1/s")
	fmt.Printf("serve-mixed: %d live verdicts alone, p50 %.3f ms; %d beside %d backfill ticks in %.2f s (%.0f ticks/s wall, %.0f per CPU second); reference kernel %.3f ms; %d poll stalls\n",
		len(p.liveLat), quantile(p.liveLat, 0.50)*1e3, len(p.floodLat), p.ticks, p.wall, float64(p.ticks)/sum(p.batchTime), cpuRate, median(sm.probes)*1e3, p.stalls)
}

// trace measures the serve path layer by layer: a second HTTP pass that
// also samples queue depth (its difference to the untraced pass is the
// tracing overhead), then in-process replays of the same ticks through
// Server.Handler().ServeHTTP and through the pipeline's parts.
func (sm *serveMixed) trace(ctx context.Context, d time.Duration, m metricSet) error {
	sm.traced = &servePass{}
	if err := sm.pass(ctx, d, true, sm.traced); err != nil {
		return err
	}
	shed := 0.0
	for _, name := range []string{liveTenant, backfillTenant} {
		st, err := tenantStats(ctx, newClient(sm.hs.URL), name)
		if err != nil {
			return err
		}
		shed += float64(st.Shed)
	}

	h, err := sm.replayHandler(ctx)
	if err != nil {
		return err
	}
	pl, err := sm.replayPipeline(ctx)
	if err != nil {
		return err
	}

	// The HTTP layer: a live POST's round trip beyond the handler's time.
	handlerMedian := quantile(h.live.durs, 0.5)
	rtt := layer{derived: true}
	for _, x := range sm.traced.liveRTT {
		rtt.add(x-handlerMedian, 0, 0, false)
	}
	rtt.report(m, "serve.http.rtt_us", "us", true, true)
	h.live.report(m, "serve.handler.ingest_live_us", "us", true, false)
	perTick := h.backfill.scaled(backfillBatch)
	perTick.report(m, "serve.handler.ingest_backfill_us", "us", true, false)
	h.verdicts.report(m, "serve.handler.verdicts_us", "us", true, false)
	m.put("serve.queue.depth_max", float64(sm.traced.depthMax), "count")
	m.put("serve.queue.shed", shed, "count")
	pl.agg.report(m, "stream.aggregator.us_per_tick", "us", true, false)
	m.put("stream.aggregator.accepted_ratio", pl.accepted, "ratio")
	pl.self.report(m, "stream.pipeline.self_us", "us", true, false)
	pl.export.report(m, "stream.snapshot.export_ms", "ms", true, false)
	m.put("stream.snapshot.bytes", pl.stateBytes, "B")
	pl.save.report(m, "serve.store.save_ms", "ms", true, false)
	m.put("serve.store.bytes", pl.fileBytes, "B")
	// Diagnostics, as fleet_hop_p99_ms is: the live tenant's verdicts while
	// the backfill tenant floods the server, against live_verdict_p50_ms.
	m.put("live_verdict_flood_p50_ms", quantile(sm.untraced.floodLat, 0.50)*1e3, "ms")
	m.put("live_verdict_p99_ms", quantile(sm.untraced.floodLat, 0.99)*1e3, "ms")
	lag := sm.untraced.sendLag
	m.put("loadgen.send_lag_p50_ms", quantile(lag, 0.50)*1e3, "ms")
	m.put("loadgen.send_lag_p99_ms", quantile(lag, 0.99)*1e3, "ms")

	// Coverage along the backfill path, per tick.
	u, t := sm.untraced, sm.traced
	httpPerTick := (sum(t.batchRTT)/float64(len(t.batchRTT)) - h.backfill.perCall()) / backfillBatch
	snapshots := (pl.bfExport.busy() + pl.bfSave.busy()) / float64(pl.bfTicks)
	layers := httpPerTick + perTick.perCall() + pl.bfAgg.perCall() + pl.bfSelf.perCall() + pl.bfStep.perCall() + snapshots
	coverage(m, "serve", u.wall/float64(u.ticks), t.wall/float64(t.ticks), layers)
	printCoverage("serve-mixed", "backfill tick", u.wall/float64(u.ticks), t.wall/float64(t.ticks), layers)
	return nil
}

// handlerLayers are the per-call timings of the handler replay.
type handlerLayers struct {
	live, backfill, verdicts layer
}

// replayHandler replays a prefix of the ticks each tenant was sent through
// the ingest and verdicts handlers of a fresh server, on a response
// recorder. After each ingest the tenant is quiesced, untimed, so the
// pipeline's work is not charged to the next call.
func (sm *serveMixed) replayHandler(ctx context.Context) (*handlerLayers, error) {
	dir, err := os.MkdirTemp(sm.dir, "replay-")
	if err != nil {
		return nil, err
	}
	store, err := serve.NewStore(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Options{Store: store})
	if err != nil {
		return nil, err
	}
	defer srv.Kill()
	for _, ts := range []*tenantState{sm.live, sm.backfill} {
		if err := srv.CreateTenant(ctx, ts.s.tenant, ts.s.cfg, ts.s.model); err != nil {
			return nil, err
		}
	}
	handler := srv.Handler()
	serveHTTP := func(l *layer, method, path string, body []byte, want int) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		l.call(func() error {
			handler.ServeHTTP(rec, req)
			if rec.Code != want {
				return fmt.Errorf("%s %s: status %d", method, path, rec.Code)
			}
			return nil
		})
	}

	var hl handlerLayers
	seq := 0
	live := sm.live.s
	for i := 0; i < min(sm.live.next, traceLiveTicks); i++ {
		serveHTTP(&hl.live, http.MethodPost, "/v1/tenants/live/ingest", live.body(i, i+1), http.StatusAccepted)
		if err := srv.Quiesce(ctx, liveTenant); err != nil {
			return nil, err
		}
		if hops := live.hops(i); hops > 0 {
			serveHTTP(&hl.verdicts, http.MethodGet, fmt.Sprintf("/v1/tenants/live/verdicts?since=%d", seq), nil, http.StatusOK)
			seq += hops
		}
	}
	bf := sm.backfill.s
	for b := 0; b < min(sm.backfill.next/backfillBatch, traceBatches); b++ {
		serveHTTP(&hl.backfill, http.MethodPost, "/v1/tenants/backfill/ingest",
			bf.body(b*backfillBatch, (b+1)*backfillBatch), http.StatusAccepted)
		if err := srv.Quiesce(ctx, backfillTenant); err != nil {
			return nil, err
		}
	}
	sm.attempted += len(hl.live.durs) + len(hl.backfill.durs) + len(hl.verdicts.durs)
	sm.failed += hl.live.failed + hl.backfill.failed + hl.verdicts.failed
	return &hl, nil
}

// pipelineLayers are the per-tick timings of the pipeline replay, both
// tenants together, and the backfill tenant's alone for the coverage row.
type pipelineLayers struct {
	agg, self, export, save         layer
	bfAgg, bfSelf, bfStep           layer
	bfExport, bfSave                layer
	bfTicks                         int
	accepted, stateBytes, fileBytes float64
}

// replayPipeline replays the same tick prefixes in process. Each tick goes
// to a stream.Pipeline (Tick timed), to a separate stream.Aggregator
// (IngestTick timed) and, hop by hop, to a separate stream.Localizer (Step
// timed), so the pipeline's self time is Tick minus the two. Every
// snapshotEvery batches the pipeline state is exported and saved to a
// scratch store, as the tenant consumer does.
func (sm *serveMixed) replayPipeline(ctx context.Context) (*pipelineLayers, error) {
	dir, err := os.MkdirTemp(sm.dir, "store-")
	if err != nil {
		return nil, err
	}
	store, err := serve.NewStore(dir)
	if err != nil {
		return nil, err
	}
	pl := &pipelineLayers{}
	var saves, stateBytes, fileBytes float64
	var accepted, offered uint64
	for _, ts := range []*tenantState{sm.live, sm.backfill} {
		s := ts.s
		n, batch := min(ts.next, traceLiveTicks), 1
		if ts == sm.backfill {
			n, batch = min(ts.next, traceBatches*backfillBatch), backfillBatch
		}
		pipe, err := stream.NewPipeline(s.model, s.opts...)
		if err != nil {
			return nil, err
		}
		agg, err := stream.NewAggregator(time.Duration(s.cfg.WindowLength), time.Duration(s.cfg.WindowHop))
		if err != nil {
			return nil, err
		}
		loc, err := stream.NewLocalizer(s.model, s.opts...)
		if err != nil {
			return nil, err
		}
		set, err := metrics.Preset(s.cfg.Preset)
		if err != nil {
			return nil, err
		}
		pending := make(map[sim.Time]map[string]telemetry.Window)
		var tick, aggL, step, export, save layer
		for i := 0; i < n; i++ {
			samples, copied := s.samples(i), s.samples(i)
			var vs []*stream.Verdict
			tick.call(func() (err error) { vs, err = pipe.Tick(ctx, samples); return })
			var done map[string][]telemetry.Window
			aggL.call(func() (err error) { done, err = agg.IngestTick(copied); return })
			got, stepped, err := stepHops(ctx, loc, set, len(s.model.Services), pending, done)
			if err != nil {
				return nil, err
			}
			step.add(stepped.busy(), sum(stepped.allocs), sum(stepped.bytes), false)
			sm.attempted++
			if !sameVerdicts(vs, got) {
				sm.failed++
				sm.wrong++
			}
			if (i+1)%(batch*snapshotEvery) == 0 {
				var st *stream.PipelineState
				export.call(func() error { st = pipe.ExportState(); return nil })
				blob, err := json.Marshal(st)
				if err != nil {
					return nil, err
				}
				stateBytes += float64(len(blob))
				snap := &serve.TenantSnapshot{
					Version: serve.SnapshotVersion, Tenant: s.tenant, Config: s.cfg,
					Model: s.model, State: st, Seq: pipe.Stats().Hops,
				}
				save.call(func() error { return store.Save(snap) })
				file, err := json.MarshalIndent(snap, "", "  ")
				if err != nil {
					return nil, err
				}
				fileBytes += float64(len(file) + 1)
				saves++
			}
		}
		as := agg.Stats()
		accepted += as.Accepted
		offered += as.Accepted + as.OutOfOrder
		self := tick.minus(&aggL, &step)
		pl.agg.merge(&aggL)
		pl.self.merge(self)
		pl.export.merge(&export)
		pl.save.merge(&save)
		if ts == sm.backfill {
			pl.bfAgg, pl.bfSelf, pl.bfStep = aggL, *self, step
			pl.bfExport, pl.bfSave, pl.bfTicks = export, save, n
		}
		sm.attempted += len(tick.durs) + len(export.durs) + len(save.durs)
		sm.failed += tick.failed + aggL.failed + export.failed + save.failed
	}
	pl.accepted = float64(accepted) / float64(offered)
	pl.stateBytes = stateBytes / saves
	pl.fileBytes = fileBytes / saves
	return pl, nil
}

// stepHops groups the aggregator's completed windows by start time, as the
// pipeline does, and steps the localizer once per fully reported window in
// timeline order, timing each Step.
func stepHops(ctx context.Context, loc *stream.Localizer, set []metrics.Metric, services int,
	pending map[sim.Time]map[string]telemetry.Window, done map[string][]telemetry.Window) ([]*stream.Verdict, *layer, error) {
	for svc, ws := range done {
		for _, w := range ws {
			if pending[w.Start] == nil {
				pending[w.Start] = make(map[string]telemetry.Window, services)
			}
			pending[w.Start][svc] = w
		}
	}
	var ready []sim.Time
	for start, bySvc := range pending {
		if len(bySvc) == services {
			ready = append(ready, start)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	var out []*stream.Verdict
	stepped := &layer{}
	for _, start := range ready {
		bySvc := pending[start]
		delete(pending, start)
		hop := make(map[string]map[string]float64, len(set))
		var at sim.Time
		for _, m := range set {
			vals := make(map[string]float64, len(bySvc))
			for svc, w := range bySvc {
				vals[svc] = m.Extract(w.Sum)
				at = w.End
			}
			hop[m.Name] = vals
		}
		var v *stream.Verdict
		stepped.call(func() (err error) { v, err = loc.Step(ctx, at, hop); return })
		if v == nil {
			return nil, nil, fmt.Errorf("serve replay: localizer step at %v failed", at)
		}
		out = append(out, v)
	}
	return out, stepped, nil
}

// sameVerdicts compares two verdict lists in their serialized form.
func sameVerdicts(a, b []*stream.Verdict) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
