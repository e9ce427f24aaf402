package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
)

var localizeServices = []string{"svc-a", "svc-b", "svc-c"}

// newLocalizeServer serves tenant "t" on the fixture model, and returns a
// production snapshot in which svc-b runs under the CPU fault.
func newLocalizeServer(tb testing.TB) (*Server, *core.Model, *metrics.Snapshot) {
	tb.Helper()
	store, err := NewStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(Options{Store: store})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Kill)
	model := fixtureModel(tb, localizeServices)
	if err := srv.CreateTenant(context.Background(), "t", tenantCfg(1, 0), model); err != nil {
		tb.Fatal(err)
	}
	return srv, model, fixtureSnapshot(tb, localizeServices, 41, 80, 1)
}

// serveRequest runs one request through the server's handler.
func serveRequest(srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// wantLocalize is the /localize answer for snap: the default localizer run
// directly, in the handler's encoding.
func wantLocalize(tb testing.TB, model *core.Model, snap *metrics.Snapshot) []byte {
	tb.Helper()
	lo, err := core.NewLocalizer()
	if err != nil {
		tb.Fatal(err)
	}
	loc, err := lo.Localize(context.Background(), model, snap)
	if err != nil {
		tb.Fatal(err)
	}
	return append(mustJSON(tb, localizeResponse{
		Candidates: loc.Candidates,
		Abstained:  loc.Abstained,
		Votes:      loc.Votes,
		Anomalies:  loc.Anomalies,
	}), '\n')
}

// wrongUniverse declares a metric the fixture model lacks.
func wrongUniverse() *metrics.Snapshot {
	wrong := metrics.NewSnapshot([]string{"other"}, localizeServices)
	for _, svc := range localizeServices {
		wrong.Data["other"][svc] = []float64{1, 2}
	}
	return wrong
}

// overCap pads body with whitespace, harmless on its own, to one byte over
// the request body cap.
func overCap(body []byte) []byte {
	if len(body) > maxBodyBytes {
		return body
	}
	return append(body[:len(body):len(body)], bytes.Repeat([]byte{' '}, maxBodyBytes+1-len(body))...)
}

func TestLocalizeEndpoint(t *testing.T) {
	srv, model, production := newLocalizeServer(t)
	rec := serveRequest(srv, http.MethodPost, "/v1/tenants/t/localize", mustJSON(t, production))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /localize = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var resp localizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0] != "svc-b" {
		t.Fatalf("candidates = %v, want [svc-b]", resp.Candidates)
	}
	if len(resp.Anomalies) == 0 {
		t.Error("response lacks anomaly explanation")
	}
	if want := wantLocalize(t, model, production); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("handler  %s\nlocalize %s", rec.Body, want)
	}
}

func TestLocalizeRejectsBadRequests(t *testing.T) {
	srv, _, production := newLocalizeServer(t)
	valid := mustJSON(t, production)
	for _, tc := range []struct {
		name  string
		path  string
		body  []byte
		codes []int
	}{
		{"malformed body", "/v1/tenants/t/localize", []byte("{"), []int{http.StatusBadRequest}},
		{"invalid snapshot", "/v1/tenants/t/localize", []byte(`{"metrics":[],"services":[],"data":{}}`), []int{http.StatusBadRequest}},
		{"wrong universe", "/v1/tenants/t/localize", mustJSON(t, wrongUniverse()), []int{http.StatusUnprocessableEntity}},
		// The body is one JSON value: anything but whitespace after it is
		// refused.
		{"trailing data", "/v1/tenants/t/localize", append(valid[:len(valid):len(valid)], "{}"...), []int{http.StatusBadRequest}},
		{"body over the cap", "/v1/tenants/t/localize", overCap(valid), []int{http.StatusBadRequest, http.StatusRequestEntityTooLarge}},
		{"unknown tenant", "/v1/tenants/ghost/localize", valid, []int{http.StatusNotFound}},
	} {
		rec := serveRequest(srv, http.MethodPost, tc.path, tc.body)
		ok := false
		for _, code := range tc.codes {
			ok = ok || rec.Code == code
		}
		if !ok {
			t.Errorf("%s = %d, want one of %v: %s", tc.name, rec.Code, tc.codes, rec.Body)
		}
	}
}

func TestLocalizeAcceptsDegradedSnapshots(t *testing.T) {
	srv, model, production := newLocalizeServer(t)
	post := func(snap *metrics.Snapshot) localizeResponse {
		t.Helper()
		rec := serveRequest(srv, http.MethodPost, "/v1/tenants/t/localize", mustJSON(t, snap))
		if rec.Code != http.StatusOK {
			t.Fatalf("degraded snapshot = %d, want 200: %s", rec.Code, rec.Body)
		}
		var resp localizeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A declared pair is missing: the localizer runs on what remains.
	partial := production.Clone()
	delete(partial.Data[model.Metrics[0]], "svc-c")
	if resp := post(partial); resp.Abstained {
		t.Fatalf("partial snapshot abstained: %+v", resp)
	}

	// Every series is gone (universe still declared): explicit abstention.
	if resp := post(metrics.NewSnapshot(model.Metrics, localizeServices)); !resp.Abstained || len(resp.Candidates) != 0 {
		t.Fatalf("dark snapshot should abstain with no candidates, got %+v", resp)
	}
}

// TestLocalizeErrorsAreJSON pins the error content type and payload.
func TestLocalizeErrorsAreJSON(t *testing.T) {
	srv, _, _ := newLocalizeServer(t)
	rec := serveRequest(srv, http.MethodPost, "/v1/tenants/t/localize", []byte("{"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error content-type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.HasPrefix(body.Error, "decode snapshot: ") {
		t.Fatalf("error body %q not a JSON error payload (%v)", rec.Body, err)
	}
}

func TestWorldsEndpoint(t *testing.T) {
	srv, model, _ := newLocalizeServer(t)
	rec := serveRequest(srv, http.MethodGet, "/v1/tenants/t/worlds", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /worlds = %d: %s", rec.Code, rec.Body)
	}
	want := `{"worlds":[{"metric":"` + model.Metrics[0] + `","sets":[` +
		`{"target":"svc-a","causal_set":["svc-a"]},` +
		`{"target":"svc-b","causal_set":["svc-b"]},` +
		`{"target":"svc-c","causal_set":["svc-c"]}]}]}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("worlds:\n got %s\nwant %s", got, want)
	}
	if rec := serveRequest(srv, http.MethodGet, "/v1/tenants/ghost/worlds", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant worlds = %d, want 404", rec.Code)
	}
}

// TestDashboardPage checks the dashboard is mounted, self-contained and
// writes no client-supplied name as HTML.
func TestDashboardPage(t *testing.T) {
	srv, _, _ := newLocalizeServer(t)
	rec := serveRequest(srv, http.MethodGet, "/dashboard", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /dashboard = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"/v1/tenants", "wait=1", "out_of_order", "textContent"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(body, "innerHTML") {
		t.Error("dashboard uses innerHTML: a service or tenant name would be parsed as HTML")
	}
}

// TestIndexPage checks the root redirects to the dashboard.
func TestIndexPage(t *testing.T) {
	srv, _, _ := newLocalizeServer(t)
	rec := serveRequest(srv, http.MethodGet, "/", nil)
	if rec.Code != http.StatusFound || rec.Header().Get("Location") != "/dashboard" {
		t.Fatalf("GET / = %d to %q, want 302 to /dashboard", rec.Code, rec.Header().Get("Location"))
	}
}

// TestIndexRejectsUnknownPaths checks the root route matches only "/".
func TestIndexRejectsUnknownPaths(t *testing.T) {
	srv, _, _ := newLocalizeServer(t)
	for _, path := range []string{"/nope", "/localize", "/worlds", "/dashboard/x"} {
		if rec := serveRequest(srv, http.MethodGet, path, nil); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
		}
	}
}

// TestMethodHygiene pins the 405 contract on the localize, worlds and page
// routes: a wrong method answers with an Allow header, not a 404.
func TestMethodHygiene(t *testing.T) {
	srv, _, _ := newLocalizeServer(t)
	for _, tc := range []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/tenants/t/localize", http.MethodPost},
		{http.MethodPut, "/v1/tenants/t/localize", http.MethodPost},
		{http.MethodPost, "/v1/tenants/t/worlds", http.MethodGet},
		{http.MethodPost, "/dashboard", http.MethodGet},
		{http.MethodPost, "/", http.MethodGet},
	} {
		rec := serveRequest(srv, tc.method, tc.path, nil)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, tc.allow) {
			t.Errorf("%s %s Allow = %q, want %q listed", tc.method, tc.path, allow, tc.allow)
		}
	}
}

// TestLocalizeDuringIngest runs /localize and /worlds on a tenant while its
// consumer goroutine works through an ingest stream. Under -race (make
// test-serve) it pins that the handlers read only the tenant's model, which
// the pipeline never writes; every answer equals the direct localization.
func TestLocalizeDuringIngest(t *testing.T) {
	fx := buildFixture(t)
	srv, c, _ := newTestServer(t, t.TempDir())
	if code := c.create("prod", tenantCfg(2, 0), fx.model); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	production := fixtureSnapshot(t, localizeServices, 41, 80, 1)
	snap, want := mustJSON(t, production), wantLocalize(t, fx.model, production)
	wire := wireTicks(fx.ticks)
	batches := make([][]byte, len(wire))
	for i := range wire {
		batches[i] = mustJSON(t, ingestRequest{Ticks: wire[i : i+1]})
	}
	// send reports errors to its caller: it runs off the test goroutine.
	send := func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer func() { close(stop); readers.Wait() }()
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, got, err := send(http.MethodPost, "/v1/tenants/prod/localize", snap)
				if err != nil || code != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("localize during ingest: %d %s (%v)", code, got, err)
					return
				}
				if code, got, err := send(http.MethodGet, "/v1/tenants/prod/worlds", nil); err != nil || code != http.StatusOK {
					t.Errorf("worlds during ingest: %d %s (%v)", code, got, err)
					return
				}
			}
		}()
	}
	for _, body := range batches {
		for {
			code, got, err := send(http.MethodPost, "/v1/tenants/prod/ingest", body)
			if err != nil {
				t.Fatal(err)
			}
			if code == http.StatusAccepted {
				break
			}
			if code != http.StatusTooManyRequests {
				t.Fatalf("ingest: %d %s", code, got)
			}
			runtime.Gosched()
		}
	}
	if err := srv.Quiesce(context.Background(), "prod"); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Processed != uint64(len(wire)) {
		t.Fatalf("processed %d batches, want %d", st.Processed, len(wire))
	}
}

// FuzzLocalizeHandler posts arbitrary bodies to /localize. Whatever the body,
// the status is 200, 400, 413 or 422; every refusal is a JSON error payload;
// and a 200 answer is exactly what the localizer returns when run directly
// on the decoded snapshot.
func FuzzLocalizeHandler(f *testing.F) {
	srv, model, production := newLocalizeServer(f)
	metric := model.Metrics[0]
	valid := mustJSON(f, production)
	partial := production.Clone()
	delete(partial.Data[metric], "svc-c")
	for _, snap := range []*metrics.Snapshot{production, partial, wrongUniverse(), metrics.NewSnapshot(model.Metrics, localizeServices)} {
		f.Add(mustJSON(f, snap), false)
	}
	f.Add(valid, true)
	f.Add(append(valid[:len(valid):len(valid)], "{}"...), false)
	f.Add(append(valid[:len(valid):len(valid)], " \n"...), false)
	f.Add([]byte("{"), false)
	f.Add([]byte(`{"metrics":[],"services":[],"data":{}}`), false)
	f.Add([]byte(`{"metrics":["`+metric+`"],"services":["svc-a","svc-b","svc-c"],"data":{"`+metric+`":{"svc-a":[1,2,3],"svc-b":[NaN]}}}`), false)
	f.Add([]byte(nil), false)

	f.Fuzz(func(t *testing.T, body []byte, pad bool) {
		if pad {
			body = overCap(body)
		}
		rec := serveRequest(srv, http.MethodPost, "/v1/tenants/t/localize", body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			var payload map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil || payload["error"] == nil {
				t.Fatalf("body %q: %d answer %q is not a JSON error payload (%v)", body, rec.Code, rec.Body, err)
			}
			return
		default:
			t.Fatalf("body %q: status %d", body, rec.Code)
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("body %q answered 200 but does not decode: %v", body, err)
		}
		if want := wantLocalize(t, model, &snap); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("body %q:\nhandler  %s\nlocalize %s", body, rec.Body, want)
		}
	})
}
