package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
)

// The handlers in this file read only a tenant's model, which never changes
// after the tenant is created; they never touch the pipeline its consumer
// goroutine owns.

// localizeResponse is the POST /v1/tenants/{tenant}/localize body.
type localizeResponse struct {
	Candidates []string            `json:"candidates"`
	Abstained  bool                `json:"abstained,omitempty"`
	Votes      map[string]float64  `json:"votes"`
	Anomalies  map[string][]string `json:"anomalies"`
}

// handleLocalize runs batch Algorithm 2 on a posted metrics.Snapshot against
// the tenant's model, with the default localizer (the model's alpha).
func (s *Server) handleLocalize(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	// json.Unmarshal refuses trailing data and copies every value out of
	// the pooled body.
	var snap metrics.Snapshot
	body, err := readBody(w, r)
	defer releaseBody(body)
	if err == nil {
		err = json.Unmarshal(body.Bytes(), &snap)
	}
	if err != nil {
		jsonError(w, http.StatusBadRequest, "decode snapshot: %v", err)
		return
	}
	// Production snapshots may lack (metric, service) pairs when telemetry
	// is degraded; the localizer handles those, abstaining if need be.
	if err := snap.ValidateTolerant(); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid snapshot: %v", err)
		return
	}
	// A snapshot declaring a different universe is a client mix-up, not
	// telemetry degradation.
	if err := universeMatches(t.model, &snap); err != nil {
		jsonError(w, http.StatusUnprocessableEntity, "localize: %v", err)
		return
	}
	lo, err := core.NewLocalizer()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	loc, err := lo.Localize(r.Context(), t.model, &snap)
	if err != nil {
		jsonError(w, http.StatusUnprocessableEntity, "localize: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, localizeResponse{
		Candidates: loc.Candidates,
		Abstained:  loc.Abstained,
		Votes:      loc.Votes,
		Anomalies:  loc.Anomalies,
	})
}

// universeMatches checks that the snapshot declares every metric and service
// of the model.
func universeMatches(model *core.Model, snap *metrics.Snapshot) error {
	declaredM := make(map[string]bool, len(snap.Metrics))
	for _, m := range snap.Metrics {
		declaredM[m] = true
	}
	for _, m := range model.Metrics {
		if !declaredM[m] {
			return fmt.Errorf("snapshot does not declare model metric %q", m)
		}
	}
	declaredS := make(map[string]bool, len(snap.Services))
	for _, svc := range snap.Services {
		declaredS[svc] = true
	}
	for _, svc := range model.Services {
		if !declaredS[svc] {
			return fmt.Errorf("snapshot does not declare model service %q", svc)
		}
	}
	return nil
}

// world is one metric's causal sets in the GET /v1/tenants/{tenant}/worlds
// body: C(s, M) for each trained target s, in model order.
type world struct {
	Metric string        `json:"metric"`
	Sets   []targetWorld `json:"sets"`
}

type targetWorld struct {
	Target    string   `json:"target"`
	CausalSet []string `json:"causal_set"`
}

// handleWorlds returns the tenant model's per-metric causal sets. A tenant's
// model passed Model.Validate, so every set is present and holds its target.
func (s *Server) handleWorlds(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	worlds := make([]world, 0, len(t.model.Metrics))
	for _, metric := range t.model.Metrics {
		wld := world{Metric: metric, Sets: make([]targetWorld, 0, len(t.model.Targets))}
		for _, target := range t.model.Targets {
			wld.Sets = append(wld.Sets, targetWorld{Target: target, CausalSet: t.model.CausalSets[metric][target]})
		}
		worlds = append(worlds, wld)
	}
	writeJSON(w, http.StatusOK, map[string]any{"worlds": worlds})
}
