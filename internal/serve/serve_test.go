package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/sim"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// fixture is a compact degraded-stream scenario: three services scraped
// every 5s into 30s/15s windows under the single-metric "raw-cpu" preset,
// with a CPU fault in svc-b from tick 26, scrape gaps on svc-c and NaN
// corruption on svc-a — gaps, spans and non-finite values all crossing the
// serve wire and the snapshot boundary.
type fixture struct {
	model *core.Model
	// ticks[i] is production tick i+1: service -> samples.
	ticks []map[string][]telemetry.Sample
}

const (
	fixInterval = 5 * time.Second
	fixLength   = 30 * time.Second
	fixHop      = 15 * time.Second
	fixTicks    = 50
)

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	services := []string{"svc-a", "svc-b", "svc-c"}
	set, err := metrics.Preset(metrics.SetRawCPU)
	if err != nil {
		t.Fatal(err)
	}

	cpu := func(si, tick int, faulty bool) sim.Counters {
		c := sim.Counters{CPUSeconds: 1.0 + 0.1*float64(si) + 0.01*float64((tick*11+si*5)%7)}
		if faulty {
			c.CPUSeconds *= 2.1
		}
		return c
	}

	baseSamples := make(map[string][]telemetry.Sample, len(services))
	for tick := 1; tick <= 40; tick++ {
		at := sim.Time(tick) * sim.Time(fixInterval)
		for si, svc := range services {
			baseSamples[svc] = append(baseSamples[svc], telemetry.Sample{
				At: at, Deltas: cpu(si, tick, false), Span: 1,
			})
		}
	}
	baseWindows, err := telemetry.WindowsByService(baseSamples, fixLength, fixHop)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := metrics.BuildSnapshot(baseWindows, services, set)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]map[string][]string{}
	for _, m := range metrics.Names(set) {
		byTarget := map[string][]string{}
		for _, svc := range services {
			byTarget[svc] = []string{svc}
		}
		sets[m] = byTarget
	}
	model := &core.Model{
		Services:   services,
		Metrics:    metrics.Names(set),
		Targets:    append([]string(nil), services...),
		CausalSets: sets,
		Baseline:   baseline,
		Alpha:      0.05,
	}
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}

	var ticks []map[string][]telemetry.Sample
	gap := 0
	for tick := 41; tick <= 40+fixTicks; tick++ {
		at := sim.Time(tick) * sim.Time(fixInterval)
		one := make(map[string][]telemetry.Sample, len(services))
		for si, svc := range services {
			smp := telemetry.Sample{At: at, Deltas: cpu(si, tick, tick > 65 && si == 1), Span: 1}
			switch {
			// One long outage (ticks 44-50): the recovery sample's 8-tick
			// span cannot fit inside any 30s window, so it is dead-trimmed
			// and the affected windows report under-coverage — the exact
			// accounting the stats endpoint must surface.
			case si == 2 && (tick%9 == 0 || (tick >= 44 && tick <= 50)):
				smp = telemetry.Sample{At: at, Missing: true}
				gap++
			case si == 2:
				smp.Span = 1 + gap
				gap = 0
			case si == 0 && tick%13 == 0:
				smp.Deltas.CPUSeconds = math.NaN()
				smp.Corrupt = true
			}
			one[svc] = []telemetry.Sample{smp}
		}
		ticks = append(ticks, one)
	}
	return &fixture{model: model, ticks: ticks}
}

// tenantCfg is the fixture's standard tenant configuration.
func tenantCfg(workers int, fdr float64) TenantConfig {
	return TenantConfig{
		WindowLength: sim.Time(fixLength),
		WindowHop:    sim.Time(fixHop),
		Preset:       metrics.SetRawCPU,
		Window:       6,
		Workers:      workers,
		FDR:          fdr,
	}
}

// wantTimeline runs the fixture through a bare stream.Pipeline — the
// reference the serve path must match byte for byte.
func (fx *fixture) wantTimeline(t testing.TB, cfg TenantConfig) []*stream.Verdict {
	t.Helper()
	set, err := metrics.Preset(cfg.Preset)
	if err != nil {
		t.Fatal(err)
	}
	p, err := stream.NewPipeline(fx.model, cfg.streamOptions(set)...)
	if err != nil {
		t.Fatal(err)
	}
	var out []*stream.Verdict
	for i, tick := range fx.ticks {
		vs, err := p.Tick(context.Background(), tick)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		out = append(out, vs...)
	}
	return out
}

// wireTicks converts fixture ticks to the ingest wire form.
func wireTicks(ticks []map[string][]telemetry.Sample) []map[string][]stream.SampleState {
	out := make([]map[string][]stream.SampleState, len(ticks))
	for i, tick := range ticks {
		w := make(map[string][]stream.SampleState, len(tick))
		for svc, samples := range tick {
			ss := make([]stream.SampleState, len(samples))
			for j, smp := range samples {
				ss[j] = stream.EncodeSample(smp)
			}
			w[svc] = ss
		}
		out[i] = w
	}
	return out
}

// client wraps an httptest server for terse request plumbing.
type client struct {
	t    testing.TB
	base string
	http *http.Client
}

func newTestServer(t testing.TB, dir string) (*Server, *client, *httptest.Server) {
	t.Helper()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, &client{t: t, base: hs.URL, http: hs.Client()}, hs
}

// do performs a request and decodes the JSON response into out (when
// non-nil), returning the status code.
func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decode response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func (c *client) create(name string, cfg TenantConfig, model *core.Model) int {
	return c.do(http.MethodPut, "/v1/tenants/"+name, createTenantRequest{Config: cfg, Model: model}, nil)
}

func (c *client) ingest(name string, ticks []map[string][]stream.SampleState) int {
	return c.do(http.MethodPost, "/v1/tenants/"+name+"/ingest", ingestRequest{Ticks: ticks}, nil)
}

func (c *client) verdicts(name string, since uint64) verdictsResponse {
	var out verdictsResponse
	if code := c.do(http.MethodGet, fmt.Sprintf("/v1/tenants/%s/verdicts?since=%d", name, since), nil, &out); code != http.StatusOK {
		c.t.Fatalf("verdicts: status %d", code)
	}
	return out
}

// mustJSON marshals for byte comparison.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeAPI(t *testing.T) {
	fx := buildFixture(t)
	srv, c, _ := newTestServer(t, t.TempDir())
	cfg := tenantCfg(1, 0)

	if code := c.create(strings.Repeat("x", 65), cfg, fx.model); code != http.StatusBadRequest {
		t.Fatalf("overlong tenant name: status %d", code)
	}
	if code := c.create(".dotfile", cfg, fx.model); code != http.StatusBadRequest {
		t.Fatalf("dotfile tenant name: status %d", code)
	}
	if code := c.create("prod", cfg, fx.model); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := c.create("prod", cfg, fx.model); code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d", code)
	}
	if code := c.do(http.MethodPut, "/v1/tenants/nomodel", map[string]any{"config": cfg}, nil); code != http.StatusBadRequest {
		t.Fatalf("create without model: status %d", code)
	}

	var listed struct {
		Tenants []string `json:"tenants"`
	}
	if code := c.do(http.MethodGet, "/v1/tenants", nil, &listed); code != http.StatusOK || len(listed.Tenants) != 1 || listed.Tenants[0] != "prod" {
		t.Fatalf("list: status %d, %v", code, listed.Tenants)
	}

	wire := wireTicks(fx.ticks)
	for i, tick := range wire {
		if code := c.ingest("prod", wire[i:i+1]); code != http.StatusAccepted {
			t.Fatalf("ingest tick %d: status %d", i, code)
		}
		_ = tick
	}
	// Hostile ingest shapes are rejected before they reach the queue.
	if code := c.ingest("prod", []map[string][]stream.SampleState{{"svc-zz": nil}}); code != http.StatusBadRequest {
		t.Fatalf("unknown service: status %d", code)
	}
	if code := c.ingest("prod", []map[string][]stream.SampleState{{"svc-a": {{At: -5}}}}); code != http.StatusBadRequest {
		t.Fatalf("negative stamp: status %d", code)
	}
	if code := c.ingest("prod", nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if code := c.ingest("ghost", wire[:1]); code != http.StatusNotFound {
		t.Fatalf("unknown tenant ingest: status %d", code)
	}

	if err := srv.Quiesce(context.Background(), "prod"); err != nil {
		t.Fatal(err)
	}
	want := fx.wantTimeline(t, cfg)
	got := c.verdicts("prod", 0)
	if len(got.Verdicts) != len(want) {
		t.Fatalf("served %d verdicts, want %d", len(got.Verdicts), len(want))
	}
	for i, sv := range got.Verdicts {
		if sv.Seq != uint64(i+1) {
			t.Fatalf("verdict %d has seq %d", i, sv.Seq)
		}
		if !bytes.Equal(mustJSON(t, sv.Verdict), mustJSON(t, want[i])) {
			t.Fatalf("verdict %d diverges from the bare pipeline", i)
		}
	}
	last := got.Verdicts[len(got.Verdicts)-1].Verdict
	if len(last.Confirmed) != 1 || last.Confirmed[0] != "svc-b" {
		t.Fatalf("final confirmation %v, want [svc-b]", last.Confirmed)
	}

	// Incremental consumption: since=next returns nothing new.
	again := c.verdicts("prod", got.Next)
	if len(again.Verdicts) != 0 || again.Next != got.Next {
		t.Fatalf("tail read returned %d verdicts, next %d", len(again.Verdicts), again.Next)
	}

	var st TenantStats
	if code := c.do(http.MethodGet, "/v1/tenants/prod/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Processed != uint64(len(fx.ticks)) || st.Seq != uint64(len(want)) {
		t.Fatalf("stats processed=%d seq=%d, want %d/%d", st.Processed, st.Seq, len(fx.ticks), len(want))
	}
	if st.Pipeline.Aggregator.Dead == 0 {
		t.Fatal("fixture gaps should produce dead-sample accounting")
	}

	if code := c.do(http.MethodPost, "/v1/tenants/prod/snapshot", nil, nil); code != http.StatusOK {
		t.Fatalf("forced snapshot: status %d", code)
	}
	if code := c.do(http.MethodDelete, "/v1/tenants/prod", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := c.do(http.MethodDelete, "/v1/tenants/prod", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", code)
	}
	if names, err := srv.opts.Store.List(); err != nil || len(names) != 0 {
		t.Fatalf("store after delete: %v %v", names, err)
	}
}

// TestServeMethodHygiene pins the 405 contract: wrong-method requests get an
// Allow header, not a 404.
func TestServeMethodHygiene(t *testing.T) {
	_, c, hs := newTestServer(t, t.TempDir())
	resp, err := hs.Client().Post(hs.URL+"/v1/tenants", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/tenants: status %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodGet) {
		t.Fatalf("405 without a usable Allow header: %q", allow)
	}
	if code := c.do(http.MethodDelete, "/healthz", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /healthz: status %d", code)
	}
}

// TestLongPollVerdicts checks the walltime-free long-poll: a wait=1 read
// parks until the next hop completes, then delivers it.
func TestLongPollVerdicts(t *testing.T) {
	fx := buildFixture(t)
	srv, c, _ := newTestServer(t, t.TempDir())
	if code := c.create("prod", tenantCfg(1, 0), fx.model); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	wire := wireTicks(fx.ticks)

	type pollResult struct {
		resp verdictsResponse
		code int
	}
	got := make(chan pollResult, 1)
	go func() {
		var out verdictsResponse
		code := c.do(http.MethodGet, "/v1/tenants/prod/verdicts?since=0&wait=1", nil, &out)
		got <- pollResult{out, code}
	}()

	// Feed ticks until the first hop completes; the poller must wake up.
	for i := range wire {
		if code := c.ingest("prod", wire[i:i+1]); code != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d", i, code)
		}
		if err := srv.Quiesce(context.Background(), "prod"); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-got:
			if r.code != http.StatusOK || len(r.resp.Verdicts) == 0 {
				t.Fatalf("long-poll returned status %d with %d verdicts", r.code, len(r.resp.Verdicts))
			}
			return
		default:
		}
	}
	r := <-got
	if r.code != http.StatusOK || len(r.resp.Verdicts) == 0 {
		t.Fatalf("long-poll never delivered: status %d, %d verdicts", r.code, len(r.resp.Verdicts))
	}
}

// TestLongPollWakesOnVerdictAfterRead pins the long-poll's lost-wakeup fix:
// the wait channel a poll receives alongside an empty read must be closed
// by the next verdict, however soon after the read it lands. The consumer is
// parked on the test gate while the poll reads, so the verdicts land
// deterministically between the read and the wait.
func TestLongPollWakesOnVerdictAfterRead(t *testing.T) {
	fx := buildFixture(t)
	srv, c, _ := newTestServer(t, t.TempDir())
	if code := c.create("prod", tenantCfg(1, 0), fx.model); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	srv.mu.RLock()
	tn := srv.tenants["prod"]
	srv.mu.RUnlock()

	release := pauseTenant(t, tn)
	if code := c.ingest("prod", wireTicks(fx.ticks)); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", code)
	}
	vs, _, _, next := tn.verdictsSince(0, 0)
	if len(vs) != 0 {
		t.Fatalf("parked tenant served %d verdicts", len(vs))
	}
	release()
	if err := srv.Quiesce(context.Background(), "prod"); err != nil {
		t.Fatal(err)
	}
	if vs, _, _, _ := tn.verdictsSince(0, 0); len(vs) == 0 {
		t.Fatal("the fixture timeline emitted no verdict")
	}
	select {
	case <-next:
	default:
		t.Fatal("a verdict landed after the poll's read but its wait channel stayed open: the poll would stall")
	}
}

// TestRunDrained pins the graceful-finish helper's contract.
func TestRunDrained(t *testing.T) {
	t.Run("drains on done", func(t *testing.T) {
		steps, drains := 0, 0
		err := RunDrained(context.Background(),
			func() (bool, error) { steps++; return steps == 3, nil },
			func() error { drains++; return nil })
		if err != nil || steps != 3 || drains != 1 {
			t.Fatalf("err=%v steps=%d drains=%d", err, steps, drains)
		}
	})
	t.Run("drains on cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		steps, drains := 0, 0
		err := RunDrained(ctx,
			func() (bool, error) {
				steps++
				if steps == 2 {
					cancel()
				}
				return false, nil
			},
			func() error { drains++; return nil })
		if err != nil || steps != 2 || drains != 1 {
			t.Fatalf("err=%v steps=%d drains=%d", err, steps, drains)
		}
	})
	t.Run("step error skips drain", func(t *testing.T) {
		drains := 0
		boom := fmt.Errorf("boom")
		err := RunDrained(context.Background(),
			func() (bool, error) { return false, boom },
			func() error { drains++; return nil })
		if err != boom || drains != 0 {
			t.Fatalf("err=%v drains=%d", err, drains)
		}
	})
}
