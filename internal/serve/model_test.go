package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"causalfl/internal/core"
	"causalfl/internal/stream"
)

// TestMalformedModelRefusedEverywhere is the model-check conformance table:
// every entry point that accepts a trained model — core.ReadModel, the batch
// Localizer.Localize, stream.NewLocalizer, serve's tenant create and the
// snapshot Store.Load a restore starts from — refuses each malformed model
// with the text of Model.Validate, the one statement of the model rules.
// Store.Save leaves the model unchecked (its tenant's model passed at create
// or restore), so a malformed one still reaches the disk here and must be
// refused on the way back.
func TestMalformedModelRefusedEverywhere(t *testing.T) {
	base := fixtureModel(t, []string{"svc-a", "svc-b", "svc-c"})
	metric := base.Metrics[0]
	for _, tc := range []struct {
		name   string
		mutate func(m *core.Model)
		want   string
	}{
		{"repeated service", func(m *core.Model) {
			m.Services = append(m.Services, "svc-a")
			m.Baseline.Services = append(m.Baseline.Services, "svc-a")
		}, `core: model lists service "svc-a" twice`},
		{"repeated metric", func(m *core.Model) {
			m.Metrics = append(m.Metrics, metric)
			m.Baseline.Metrics = append(m.Baseline.Metrics, metric)
		}, `core: model lists metric "` + metric + `" twice`},
		{"repeated target", func(m *core.Model) {
			m.Targets = append(m.Targets, "svc-b")
		}, `core: model lists target "svc-b" twice`},
		{"baseline declares an extra service", func(m *core.Model) {
			m.Baseline.Services = append(m.Baseline.Services, "svc-z")
		}, `core: baseline declares service "svc-z" the model lacks`},
		{"baseline lacks a metric", func(m *core.Model) {
			m.Metrics = append(m.Metrics, "extra")
			m.CausalSets["extra"] = m.CausalSets[metric]
		}, `core: baseline lacks model metric "extra"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := mustJSON(t, base)
			var model core.Model
			if err := json.Unmarshal(blob, &model); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&model)
			if err := model.Validate(); err == nil || err.Error() != tc.want {
				t.Fatalf("Validate = %v, want %q", err, tc.want)
			}
			blob = mustJSON(t, &model)

			refuses := func(path string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s = %v, want an error containing %q", path, err, tc.want)
				}
			}
			_, err := core.ReadModel(bytes.NewReader(blob))
			refuses("core.ReadModel", err)
			lo, err := core.NewLocalizer()
			if err != nil {
				t.Fatal(err)
			}
			_, err = lo.Localize(context.Background(), &model, model.Baseline)
			refuses("Localizer.Localize", err)
			_, err = stream.NewLocalizer(&model)
			refuses("stream.NewLocalizer", err)

			store, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(Options{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Kill()
			body := mustJSON(t, createTenantRequest{Config: tenantCfg(1, 0), Model: &model})
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/tenants/t", bytes.NewReader(body)))
			var resp struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("PUT /v1/tenants/t: %d %s", rec.Code, rec.Body)
			}
			if rec.Code != http.StatusBadRequest || !strings.Contains(resp.Error, tc.want) {
				t.Errorf("PUT /v1/tenants/t = %d %q, want 400 containing %q", rec.Code, resp.Error, tc.want)
			}

			snap := &TenantSnapshot{Version: SnapshotVersion, Tenant: "t", Config: tenantCfg(1, 0).withDefaults(), Model: &model}
			if err := store.Save(snap); err != nil {
				t.Fatalf("Store.Save checks only the envelope and state, got %v", err)
			}
			_, err = store.Load("t")
			refuses("Store.Load", err)
		})
	}
}
