package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"causalfl/internal/apps/robotshop"
	"causalfl/internal/eval"
	"causalfl/internal/stream"
	"causalfl/internal/telemetry"
)

// referenceDecode is the ingest decode written with nothing but
// encoding/json: the body is one JSON value (json.Unmarshal rejects
// trailing data) holding an ingestRequest, converted sample by sample.
func referenceDecode(body []byte) ([]map[string][]telemetry.Sample, error) {
	if len(body) > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	var req ingestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	ticks := make([]map[string][]telemetry.Sample, len(req.Ticks))
	for i, wire := range req.Ticks {
		tick := make(map[string][]telemetry.Sample, len(wire))
		for svc, ss := range wire {
			samples := make([]telemetry.Sample, len(ss))
			for j, one := range ss {
				samples[j] = one.Sample()
			}
			tick[svc] = samples
		}
		ticks[i] = tick
	}
	return ticks, nil
}

// referenceIngest is the ingest handler's contract on top of
// referenceDecode: the status, the response body and the ticks it enqueues.
func referenceIngest(tn *tenant, body []byte) (int, string, []map[string][]telemetry.Sample) {
	rec := httptest.NewRecorder()
	ticks, err := referenceDecode(body)
	switch {
	case err != nil:
		jsonError(rec, http.StatusBadRequest, "decode request: %v", err)
	case len(ticks) == 0:
		jsonError(rec, http.StatusBadRequest, "empty batch")
	default:
		if err := tn.validateTicks(ticks); err != nil {
			jsonError(rec, http.StatusBadRequest, "%v", err)
			break
		}
		writeJSON(rec, http.StatusAccepted, map[string]any{"accepted": len(ticks)})
		return rec.Code, rec.Body.String(), ticks
	}
	return rec.Code, rec.Body.String(), nil
}

// canon renders ticks for comparison: %#v sorts map keys, tells nil from
// empty and spells NaN, which reflect.DeepEqual would call unequal to
// itself.
func canon(ticks []map[string][]telemetry.Sample) string { return fmt.Sprintf("%#v", ticks) }

// ingestHarness serves one tenant, "t", whose consumer never runs, so an
// accepted batch stays in the queue for the test to take.
type ingestHarness struct {
	srv *Server
	tn  *tenant
}

func newIngestHarness(tb testing.TB, services []string) *ingestHarness {
	tb.Helper()
	tn, err := newTenant("t", tenantCfg(1, 0), fixtureModel(tb, services), nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	srv := &Server{tenants: map[string]*tenant{"t": tn}}
	srv.routes()
	return &ingestHarness{srv: srv, tn: tn}
}

// post drives the ingest handler and returns its status, response body
// and the batch it enqueued, if any.
func (h *ingestHarness) post(body []byte) (int, string, []map[string][]telemetry.Sample) {
	rec := httptest.NewRecorder()
	h.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants/t/ingest", bytes.NewReader(body)))
	var ticks []map[string][]telemetry.Sample
	select {
	case j := <-h.tn.queue:
		ticks = j.ticks
	default:
	}
	return rec.Code, rec.Body.String(), ticks
}

// scan runs the scanner alone; ok is false when it leaves the body to
// encoding/json.
func scan(body []byte, names map[string]string) ([]map[string][]telemetry.Sample, bool) {
	sc := ingestScanner{buf: body, names: names}
	return sc.request()
}

// robotshopBatch records 64 ticks of a robotshop live session and encodes
// them as one ingest body, the way encoding/json writes it.
func robotshopBatch(tb testing.TB) (services []string, body []byte) {
	tb.Helper()
	cfg := eval.Options{Seed: 1, Quick: true}.Apply(eval.Config{Build: robotshop.Build})
	ls, err := eval.NewLiveSession(cfg, 1, 7)
	if err != nil {
		tb.Fatal(err)
	}
	var req ingestRequest
	for i := 0; i < 64; i++ {
		req.Ticks = append(req.Ticks, wireTicks([]map[string][]telemetry.Sample{ls.Advance(ls.Config().SampleInterval)})...)
	}
	return ls.Services(), mustJSON(tb, req)
}

// ingestSeeds are the fuzz seeds of FuzzIngestHandler over the services
// svc-a, svc-b and svc-c; each is also a case of the unit tests.
func ingestSeeds(tb testing.TB) map[string][]byte {
	fx := buildFixture(tb)
	canonical := mustJSON(tb, ingestRequest{Ticks: wireTicks(fx.ticks[:4])})
	pretty, err := json.MarshalIndent(ingestRequest{Ticks: wireTicks(fx.ticks[4:6])}, "", "\t")
	if err != nil {
		tb.Fatal(err)
	}
	one := `{"ticks":[{"svc-a":[{"at":5,"deltas":{"cpu_seconds":1.5}}]}]}`
	return map[string][]byte{
		"canonical":      canonical,
		"pretty":         pretty,
		"case-folded":    []byte(`{"TICKS":[{"svc-a":[{"AT":1,"Deltas":{"CPU_Seconds":2,"rx_PACKETS":3},"Missing":true}]}]}`),
		"escaped-name":   []byte(`{"ticks":[{"svc-\u0061":[{"at":5}],"svc-b":[]}]}`),
		"non-ascii-name": []byte(`{"ticks":[{"svc-é":[{"at":5}]}]}`),
		"non-finite":     []byte(`{"ticks":[{"svc-a":[{"at":5,"deltas":{"cpu_seconds":"NaN","busy_seconds":"+Inf"}}],"svc-b":[{"at":5,"deltas":{"cpu_seconds":"-Inf"}}]}]}`),
		"null-samples":   []byte(`{"ticks":[{"svc-a":null}]}`),
		"null-ticks":     []byte(`{"ticks":null}`),
		"null-counter":   []byte(`{"ticks":[{"svc-a":[{"at":5,"deltas":{"rx_packets":null}}]}]}`),
		"float-stamp":    []byte(`{"ticks":[{"svc-a":[{"at":1.0}]}]}`),
		"plus-float":     []byte(`{"ticks":[{"svc-a":[{"at":1,"deltas":{"cpu_seconds":+1}}]}]}`),
		"uint-overflow":  []byte(`{"ticks":[{"svc-a":[{"at":1,"deltas":{"requests_received":18446744073709551616}}]}]}`),
		"negative-zero":  []byte(`{"ticks":[{"svc-a":[{"at":-0,"span":-0,"deltas":{"cpu_seconds":-0}}]}]}`),
		"negative-uint":  []byte(`{"ticks":[{"svc-a":[{"at":1,"deltas":{"rx_packets":-0}}]}]}`),
		"repeated-keys":  []byte(`{"ticks":[{"svc-a":[{"at":1,"deltas":{"rx_packets":1},"at":2,"deltas":{"tx_packets":2}}],"svc-a":[{"at":3}]}]}`),
		"repeated-ticks": []byte(`{"ticks":[{"svc-a":[{"at":1}]}],"ticks":[{"svc-b":[{"at":2}]}]}`),
		"unknown-key":    []byte(`{"ticks":[{"svc-a":[{"at":1,"extra":{"nested":[1,2]}}]}]}`),
		"used-flag":      []byte(`{"ticks":[{"svc-a":[{"at":1,"used":true,"missing":false}]}]}`),
		"empty":          []byte(`{"ticks":[{},{"svc-a":[]}]}`),
		"empty-batch":    []byte(` { "ticks" : [ ] } `),
		"invalid":        []byte(`{"ticks":[{"svc-zz":[{"at":1}],"svc-yy":[{"at":1}],"svc-a":[{"at":-1}]}]}`),
		"bad-span":       []byte(`{"ticks":[{"svc-b":[{"at":1,"span":-2}],"svc-a":[{"at":99999999999999999}]}]}`),
		"trailing-batch": []byte(one + one),
		"trailing-junk":  []byte(one + "garbage!!"),
		"truncated":      []byte(one[:len(one)-3]),
		"no-body":        nil,
	}
}

func TestIngestScannerKeysMatchWireTags(t *testing.T) {
	tags := func(v any) []string {
		var keys []string
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			keys = append(keys, name)
		}
		return keys
	}
	if want := tags(stream.SampleState{}); !reflect.DeepEqual(sampleKeys, want) {
		t.Fatalf("scanner sample keys %v, SampleState tags %v", sampleKeys, want)
	}
	if want := tags(stream.CounterState{}); !reflect.DeepEqual(counterKeys, want) {
		t.Fatalf("scanner counter keys %v, CounterState tags %v", counterKeys, want)
	}

	// Each key, set alone, takes the scanner and lands where encoding/json
	// puts it.
	names := map[string]string{"svc-a": "svc-a"}
	var bodies []string
	for i, key := range counterKeys {
		bodies = append(bodies, fmt.Sprintf(`{"ticks":[{"svc-a":[{"at":1,"deltas":{%q:%d}}]}]}`, key, i+2))
	}
	for _, member := range []string{`"at":7`, `"deltas":{}`, `"missing":true`, `"span":3`, `"corrupt":true`, `"used":true`} {
		bodies = append(bodies, `{"ticks":[{"svc-a":[{`+member+`}]}]}`)
	}
	for _, body := range bodies {
		got, ok := scan([]byte(body), names)
		if !ok {
			t.Fatalf("%s: the scanner leaves a canonical body to encoding/json", body)
		}
		want, err := referenceDecode([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if canon(got) != canon(want) {
			t.Fatalf("%s:\nscanner %s\njson    %s", body, canon(got), canon(want))
		}
	}
}

// TestIngestScannerTakesCanonicalBodies pins which bodies take the scanner:
// encoding/json's own output, compact or indented, decodes there, to the
// same ticks, and a known service name is the table's own string.
func TestIngestScannerTakesCanonicalBodies(t *testing.T) {
	services, batch := robotshopBatch(t)
	names := make(map[string]string, len(services))
	for _, svc := range services {
		names[svc] = svc
	}
	seeds := ingestSeeds(t)
	for name, body := range map[string][]byte{"robotshop": batch, "canonical": seeds["canonical"], "pretty": seeds["pretty"]} {
		got, ok := scan(body, names)
		if !ok {
			t.Fatalf("%s: the scanner leaves the body to encoding/json", name)
		}
		want, err := referenceDecode(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || canon(got) != canon(want) {
			t.Fatalf("%s: scanner and encoding/json disagree", name)
		}
	}
	got, _ := scan(batch, names)
	for svc := range got[0] {
		if own := names[svc]; unsafe.StringData(svc) != unsafe.StringData(own) {
			t.Fatalf("service %q was not interned", svc)
		}
	}
	for _, name := range []string{"case-folded", "escaped-name", "non-ascii-name", "null-samples", "float-stamp", "uint-overflow", "repeated-ticks", "unknown-key", "trailing-batch", "trailing-junk"} {
		if _, ok := scan(seeds[name], names); ok {
			t.Fatalf("%s: the scanner took a body it must leave to encoding/json", name)
		}
	}
}

// TestIngestRejectsTrailingData: a body is one JSON value. Data after it
// was once dropped silently, losing a second concatenated batch.
func TestIngestRejectsTrailingData(t *testing.T) {
	h := newIngestHarness(t, []string{"svc-a", "svc-b", "svc-c"})
	one := `{"ticks":[{"svc-a":[{"at":5}]}]}`
	folded := `{"TICKS":[{"svc-a":[{"AT":5}]}]}` // decoded by encoding/json
	for _, body := range []string{one + one, one + "garbage!!", one + " \n\t{", folded + folded, folded + "]"} {
		code, resp, ticks := h.post([]byte(body))
		if code != http.StatusBadRequest || !strings.Contains(resp, "decode request: invalid character") || ticks != nil {
			t.Fatalf("%s: status %d, %s, enqueued %d ticks", body, code, resp, len(ticks))
		}
	}
	for _, body := range []string{one + " \n\t\r ", folded} {
		if code, resp, _ := h.post([]byte(body)); code != http.StatusAccepted {
			t.Fatalf("%s: status %d, %s", body, code, resp)
		}
	}

	srv, _, _ := newTestServer(t, t.TempDir())
	create := mustJSON(t, createTenantRequest{Config: tenantCfg(1, 0), Model: fixtureModel(t, []string{"svc-a"})})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/tenants/t", bytes.NewReader(append(create, "{}"...))))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "decode request: invalid character") {
		t.Fatalf("create with trailing data: status %d, %s", rec.Code, rec.Body)
	}
}

// TestCreateTenantBoundsEagerAllocations: the knobs that size allocations
// at creation are bounded, so one request cannot claim the host's memory.
func TestCreateTenantBoundsEagerAllocations(t *testing.T) {
	model := fixtureModel(t, []string{"svc-a", "svc-b"})
	srv, _, _ := newTestServer(t, t.TempDir())
	for want, cfg := range map[string]TenantConfig{
		"queue capacity 65537 > 65536": {Window: 4, QueueCap: maxQueueCap + 1},
		"retains more than 16777216":   {Window: maxWindowValues/2 + 1},
	} {
		cfg.Preset = tenantCfg(1, 0).Preset
		if err := srv.CreateTenant(context.Background(), "t", cfg, model); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want an error with %q, got %v", want, err)
		}
	}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewServer(Options{Store: store, Defaults: TenantConfig{QueueCap: maxQueueCap + 1}})
	if err == nil || !strings.Contains(err.Error(), "default queue capacity 65537 > 65536") {
		t.Fatalf("server started with an unbounded default queue: %v", err)
	}
}

// TestRestoreSkipsCreationBounds: the creation bounds do not apply on boot,
// so a tenant created before they existed, with a config over them, is
// restored as it was.
func TestRestoreSkipsCreationBounds(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tenantCfg(1, 0)
	cfg.QueueCap = maxQueueCap + 1
	snap := &TenantSnapshot{Version: SnapshotVersion, Tenant: "old", Config: cfg, Model: fixtureModel(t, []string{"svc-a"})}
	if err := store.Save(snap); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Options{Store: store})
	if err != nil {
		t.Fatalf("boot over a tenant over the creation bounds: %v", err)
	}
	defer srv.Kill()
	if st := srv.Stats().Tenants; len(st) != 1 || st[0].QueueCap != maxQueueCap+1 {
		t.Fatalf("restored tenants %+v, want old with queue_cap %d", st, maxQueueCap+1)
	}
}

// TestEmptyTicksAllocateLittle: a tick's map is sized by what the body has
// shown, not by the model, so a body of empty ticks to a many-service
// tenant costs about what encoding/json's empty maps cost.
func TestEmptyTicksAllocateLittle(t *testing.T) {
	services := make([]string, 16)
	for i := range services {
		services[i] = fmt.Sprintf("svc-%02d", i)
	}
	h := newIngestHarness(t, services)
	const n = 20000
	body := []byte(`{"ticks":[` + strings.Repeat("{},", n-1) + "{}]}")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, resp, ticks := h.post(body)
	runtime.ReadMemStats(&after)
	if code != http.StatusAccepted || len(ticks) != n {
		t.Fatalf("status %d, %s, %d ticks enqueued", code, resp, len(ticks))
	}
	if perTick := (after.TotalAlloc - before.TotalAlloc) / n; perTick > 256 {
		t.Fatalf("%d bytes allocated per empty tick, want at most 256", perTick)
	}
}

// TestIngestDoesNotRetainBody: the handler reads bodies into pooled
// buffers, so nothing it enqueues may alias one. Batch A waits in the queue
// of a parked tenant while batch B, of the same length, is read into the
// buffer A came in; A's ticks must still be what A says.
func TestIngestDoesNotRetainBody(t *testing.T) {
	fx := buildFixture(t)
	srv, _, _ := newTestServer(t, t.TempDir())
	if err := srv.CreateTenant(context.Background(), "t", tenantCfg(1, 0), fx.model); err != nil {
		t.Fatal(err)
	}
	srv.mu.RLock()
	tn := srv.tenants["t"]
	srv.mu.RUnlock()

	a := mustJSON(t, ingestRequest{Ticks: wireTicks(fx.ticks[:8])})
	b := mustJSON(t, ingestRequest{Ticks: wireTicks(fx.ticks[8:16])})
	// Trailing whitespace keeps a body canonical; it evens the lengths so
	// B overwrites every byte A was read into.
	for len(a) < len(b) {
		a = append(a, ' ')
	}
	for len(b) < len(a) {
		b = append(b, ' ')
	}
	wantA, err := referenceDecode(bytes.Clone(a))
	if err != nil {
		t.Fatal(err)
	}

	release := pauseTenant(t, tn)
	for _, body := range [][]byte{a, b} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants/t/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("ingest: status %d, %s", rec.Code, rec.Body)
		}
	}
	// Take A's job to inspect and put both back in order for the consumer.
	jobA, jobB := <-tn.queue, <-tn.queue
	tn.queue <- jobA
	tn.queue <- jobB
	release()
	err = srv.Quiesce(context.Background(), "t")
	if got, want := canon(jobA.ticks), canon(wantA); got != want {
		t.Fatalf("batch A changed after batch B was read:\ngot  %s\nwant %s", got, want)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st := tn.snapshotStats(); st.Processed != 2 {
		t.Fatalf("tenant processed %d batches, want 2", st.Processed)
	}
}

// TestHandleIngestAllocBound bounds what one warm ingest POST of the
// 64-tick, 12-service robotshop batch (about 156 kB) allocates: the decoded
// ticks, not the body read. Reading every body into a fresh buffer cost
// about 844 kB per POST.
func TestHandleIngestAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	services, body := robotshopBatch(t)
	h := newIngestHarness(t, services)
	post := func() {
		if code, resp, _ := h.post(body); code != http.StatusAccepted {
			t.Fatalf("status %d: %s", code, resp)
		}
	}
	post()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, post)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call before the measured runs.
	perPost := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("%d bytes, %.0f objects per POST", perPost, allocs)
	if perPost > 300<<10 {
		t.Fatalf("a warm ingest POST of %d bytes allocated %d bytes in %.0f objects, want at most %d bytes",
			len(body), perPost, allocs, 300<<10)
	}
}

func FuzzIngestHandler(f *testing.F) {
	seeds := ingestSeeds(f)
	for _, body := range seeds {
		f.Add(body, false)
	}
	f.Add(seeds["canonical"], true)
	h := newIngestHarness(f, []string{"svc-a", "svc-b", "svc-c"})
	f.Fuzz(func(t *testing.T, body []byte, overCap bool) {
		if overCap && len(body) <= maxBodyBytes {
			// Pad with whitespace, which alone would be harmless, to one
			// byte over the cap.
			body = append(body, bytes.Repeat([]byte{' '}, maxBodyBytes+1-len(body))...)
		}
		code, resp, ticks := h.post(body)
		wantCode, wantResp, wantTicks := referenceIngest(h.tn, body)
		if code != wantCode || resp != wantResp {
			t.Fatalf("body %q:\nhandler   %d %s\nreference %d %s", body, code, resp, wantCode, wantResp)
		}
		if canon(ticks) != canon(wantTicks) {
			t.Fatalf("body %q: enqueued\n%s\nreference\n%s", body, canon(ticks), canon(wantTicks))
		}
	})
}

func FuzzCreateTenantHandler(f *testing.F) {
	fx := buildFixture(f)
	valid := mustJSON(f, createTenantRequest{Config: tenantCfg(1, 0), Model: fx.model})
	f.Add(valid, false)
	f.Add(append(append([]byte(nil), valid...), `{"config":{}}`...), false)
	f.Add(append(append([]byte(nil), valid...), "garbage!!"...), false)
	f.Add(valid, true)
	f.Add([]byte(`{"CONFIG":{"window":6,"preset":"raw-cpu"},"Model":null}`), false)
	f.Add([]byte(`{"config":{"window":6,"queue_cap":99999999,"preset":"raw-cpu"},"model":{}}`), false)
	f.Add([]byte(`{"config":{"window":6,"shards":7},"model":null} `), false)
	f.Add([]byte(`{"config":{"window":6,"sketch_eps":0.05},"model":null}`), false)
	f.Add([]byte(`{"config":[]}`), false)
	f.Add([]byte(nil), false)

	newServer := func() *Server {
		store, err := NewStore(f.TempDir())
		if err != nil {
			f.Fatal(err)
		}
		srv, err := NewServer(Options{Store: store})
		if err != nil {
			f.Fatal(err)
		}
		return srv
	}
	// The handler under test and the reference each get a server; a tenant
	// created in one iteration is deleted before the next.
	srv, ref := newServer(), newServer()
	var once sync.Once
	f.Cleanup(func() { once.Do(func() { srv.Kill(); ref.Kill() }) })
	f.Fuzz(func(t *testing.T, body []byte, overCap bool) {
		if overCap && len(body) <= maxBodyBytes {
			body = append(body, bytes.Repeat([]byte{' '}, maxBodyBytes+1-len(body))...)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/tenants/t", bytes.NewReader(body)))
		defer func() { _ = srv.DeleteTenant("t"); _ = ref.DeleteTenant("t") }()

		want := httptest.NewRecorder()
		var req createTenantRequest
		err := error(&http.MaxBytesError{Limit: maxBodyBytes})
		if len(body) <= maxBodyBytes {
			err = json.Unmarshal(body, &req)
		}
		switch {
		case err != nil:
			jsonError(want, http.StatusBadRequest, "decode request: %v", err)
		case req.Model == nil:
			jsonError(want, http.StatusBadRequest, "request has no model")
		default:
			// Model validation is deterministic, so a model with several
			// faults is always refused for the same one: the whole error
			// body is pinned.
			if err := ref.CreateTenant(context.Background(), "t", req.Config, req.Model); err != nil {
				jsonError(want, http.StatusBadRequest, "%v", err)
				break
			}
			writeJSON(want, http.StatusCreated, map[string]any{"tenant": "t"})
		}
		if rec.Code != want.Code || rec.Body.String() != want.Body.String() {
			t.Fatalf("body %q:\nhandler   %d %s\nreference %d %s", body, rec.Code, rec.Body, want.Code, want.Body)
		}
	})
}

// BenchmarkIngestDecode decodes a 64-tick, 12-service robotshop batch.
func BenchmarkIngestDecode(b *testing.B) {
	services, body := robotshopBatch(b)
	names := make(map[string]string, len(services))
	for _, svc := range services {
		names[svc] = svc
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ticks, err := decodeIngest(body, names)
		if err != nil || len(ticks) != 64 {
			b.Fatalf("decoded %d ticks: %v", len(ticks), err)
		}
	}
}

// BenchmarkHandleIngest serves the same batch through the ingest handler:
// body read, decode, validation and enqueue, on a response recorder.
func BenchmarkHandleIngest(b *testing.B) {
	services, body := robotshopBatch(b)
	h := newIngestHarness(b, services)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, resp, _ := h.post(body); code != http.StatusAccepted {
			b.Fatalf("status %d: %s", code, resp)
		}
	}
}
