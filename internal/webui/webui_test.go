package webui

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
)

// trainedModel builds a small model over services {x, y} where a fault in x
// shifts metric m on both.
func trainedModel(t testing.TB) (*core.Model, *metrics.Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	mk := func(shift bool) *metrics.Snapshot {
		snap := metrics.NewSnapshot([]string{"m"}, []string{"x", "y"})
		for _, svc := range []string{"x", "y"} {
			series := make([]float64, 15)
			off := 0.0
			if shift {
				off = 9
			}
			for i := range series {
				series[i] = 5 + off + rng.NormFloat64()*0.4
			}
			snap.Data["m"][svc] = series
		}
		return snap
	}
	baseline := mk(false)
	learner, err := core.NewLearner()
	if err != nil {
		t.Fatal(err)
	}
	model, err := learner.Learn(context.Background(), baseline, map[string]*metrics.Snapshot{"x": mk(true)})
	if err != nil {
		t.Fatal(err)
	}
	return model, mk(true) // production data matching the x world
}

func newTestServer(t *testing.T) (*Server, *metrics.Snapshot) {
	t.Helper()
	model, production := trainedModel(t)
	s, err := NewServer(model)
	if err != nil {
		t.Fatal(err)
	}
	return s, production
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewServer(&core.Model{}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestIndexPage(t *testing.T) {
	s, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET / = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"causalfl", "/worlds", "/localize"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestIndexRejectsUnknownPaths(t *testing.T) {
	s, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", rec.Code)
	}
}

func TestWorldsPage(t *testing.T) {
	s, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/worlds", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /worlds = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "metric m") {
		t.Errorf("worlds page missing metric heading:\n%s", body)
	}
	if !strings.Contains(body, "x, y") {
		t.Errorf("worlds page missing causal set:\n%s", body)
	}
}

func TestLocalizeEndpoint(t *testing.T) {
	s, production := newTestServer(t)
	blob, err := json.Marshal(production)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/localize", bytes.NewReader(blob)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /localize = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Candidates []string            `json:"candidates"`
		Anomalies  map[string][]string `json:"anomalies"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0] != "x" {
		t.Fatalf("candidates = %v, want {x}", resp.Candidates)
	}
	if len(resp.Anomalies) == 0 {
		t.Error("response lacks anomaly explanation")
	}
}

func TestLocalizeRejectsBadRequests(t *testing.T) {
	s, production := newTestServer(t)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/localize", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /localize = %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/localize", strings.NewReader("{")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/localize", strings.NewReader(`{"metrics":[],"services":[],"data":{}}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid snapshot = %d, want 400", rec.Code)
	}

	// A structurally valid snapshot with the wrong metrics fails inside
	// the localizer.
	wrong := metrics.NewSnapshot([]string{"other"}, []string{"x", "y"})
	wrong.Data["other"]["x"] = []float64{1, 2}
	wrong.Data["other"]["y"] = []float64{1, 2}
	blob, err := json.Marshal(wrong)
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/localize", bytes.NewReader(blob)))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("metric-mismatched snapshot = %d, want 422", rec.Code)
	}

	// The body is one JSON value: a valid snapshot followed by anything but
	// whitespace is refused.
	valid, err := json.Marshal(production)
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/localize", bytes.NewReader(append(valid, "{}"...))))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("snapshot with trailing data = %d, want 400", rec.Code)
	}

	// A valid snapshot padded with whitespace past the cap is refused too.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/localize", bytes.NewReader(overCap(valid))))
	if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("body over the cap = %d, want 400 or 413", rec.Code)
	}
}

// overCap pads body with whitespace, harmless on its own, to one byte over
// the request body cap.
func overCap(body []byte) []byte {
	if len(body) > maxBodyBytes {
		return body
	}
	return append(body[:len(body):len(body)], bytes.Repeat([]byte{' '}, maxBodyBytes+1-len(body))...)
}

func TestLocalizeAcceptsDegradedSnapshots(t *testing.T) {
	s, production := newTestServer(t)

	post := func(snap *metrics.Snapshot) (*httptest.ResponseRecorder, localizeResponse) {
		t.Helper()
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/localize", bytes.NewReader(blob)))
		var resp localizeResponse
		if rec.Code == http.StatusOK {
			if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
				t.Fatal(err)
			}
		}
		return rec, resp
	}

	// A declared pair is missing: the localizer runs on what remains.
	partial := production.Clone()
	delete(partial.Data["m"], "y")
	rec, resp := post(partial)
	if rec.Code != http.StatusOK {
		t.Fatalf("partial snapshot = %d, want 200: %s", rec.Code, rec.Body)
	}
	if resp.Abstained {
		t.Fatalf("partial snapshot abstained: %+v", resp)
	}

	// Every series is gone (universe still declared): explicit abstention.
	dark := metrics.NewSnapshot([]string{"m"}, []string{"x", "y"})
	rec, resp = post(dark)
	if rec.Code != http.StatusOK {
		t.Fatalf("dark snapshot = %d, want 200: %s", rec.Code, rec.Body)
	}
	if !resp.Abstained || len(resp.Candidates) != 0 {
		t.Fatalf("dark snapshot should abstain with no candidates, got %+v", resp)
	}
}

// TestMethodHygiene pins the 405 contract: wrong-method requests answer with
// an Allow header instead of a bare rejection or 404.
func TestMethodHygiene(t *testing.T) {
	s, _ := newTestServer(t)
	for _, tc := range []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/localize", http.MethodPost},
		{http.MethodPost, "/worlds", http.MethodGet},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, tc.allow) {
			t.Errorf("%s %s Allow = %q, want %q listed", tc.method, tc.path, allow, tc.allow)
		}
	}
}

// TestLocalizeErrorsAreJSON pins the error content-type on the API path.
func TestLocalizeErrorsAreJSON(t *testing.T) {
	s, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/localize", strings.NewReader("{")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error content-type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("error body %q not a JSON error payload (%v)", rec.Body.String(), err)
	}
}

// TestDashboardPage checks the live dashboard is mounted and self-contained.
func TestDashboardPage(t *testing.T) {
	s, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/dashboard", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /dashboard = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"/v1/tenants", "wait=1", "out_of_order"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// FuzzLocalizeHandler posts arbitrary bodies to /localize. Whatever the body,
// the status is 200, 400, 413 or 422; every refusal is a JSON error payload;
// and a 200 answer is exactly what the localizer returns when run directly
// on the decoded snapshot.
func FuzzLocalizeHandler(f *testing.F) {
	model, production := trainedModel(f)
	s, err := NewServer(model)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(production)
	if err != nil {
		f.Fatal(err)
	}
	partial := production.Clone()
	delete(partial.Data["m"], "y")
	wrong := metrics.NewSnapshot([]string{"other"}, []string{"x", "y"})
	wrong.Data["other"]["x"] = []float64{1, 2}
	wrong.Data["other"]["y"] = []float64{1, 2}
	for _, snap := range []*metrics.Snapshot{production, partial, wrong, metrics.NewSnapshot([]string{"m"}, []string{"x", "y"})} {
		blob, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob, false)
	}
	f.Add(valid, true)
	f.Add(append(append([]byte(nil), valid...), "{}"...), false)
	f.Add(append(append([]byte(nil), valid...), " \n"...), false)
	f.Add([]byte("{"), false)
	f.Add([]byte(`{"metrics":[],"services":[],"data":{}}`), false)
	f.Add([]byte(`{"metrics":["m"],"services":["x","y"],"data":{"m":{"x":[1,2,3],"y":[NaN]}}}`), false)
	f.Add([]byte(nil), false)

	localizer, err := core.NewLocalizer()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, pad bool) {
		if pad {
			body = overCap(body)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/localize", bytes.NewReader(body)))
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
		loc, err := localizer.Localize(context.Background(), model, &snap)
		if err != nil {
			t.Fatalf("body %q answered 200 but Localize fails: %v", body, err)
		}
		want, err := json.Marshal(localizeResponse{
			Candidates: loc.Candidates,
			Abstained:  loc.Abstained,
			Votes:      loc.Votes,
			Anomalies:  loc.Anomalies,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
			t.Fatalf("body %q:\nhandler  %s\nlocalize %s", body, got, want)
		}
	})
}
