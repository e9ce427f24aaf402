// Package webui serves a trained causal model over HTTP: human-readable
// pages for the per-metric causal worlds and a JSON localization endpoint
// that accepts production metric snapshots. It is the operator-facing
// surface of the pipeline — in the paper's deployment story, the component
// an SRE would query when production alarms fire.
package webui

import (
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net/http"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
)

// maxBodyBytes caps a /localize body, the same cap serve puts on its
// request bodies.
const maxBodyBytes = 8 << 20

// Server serves one trained model.
type Server struct {
	model     *core.Model
	localizer *core.Localizer
	mux       *http.ServeMux
}

var _ http.Handler = (*Server)(nil)

// NewServer validates the model and builds the handler.
func NewServer(model *core.Model) (*Server, error) {
	if model == nil {
		return nil, fmt.Errorf("webui: nil model")
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("webui: %w", err)
	}
	localizer, err := core.NewLocalizer()
	if err != nil {
		return nil, err
	}
	s := &Server{model: model, localizer: localizer, mux: http.NewServeMux()}
	// Method patterns: a wrong-method request gets 405 with an Allow header
	// from the mux itself instead of a handler-specific 404 or rejection.
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("GET /worlds", s.handleWorlds)
	s.mux.HandleFunc("POST /localize", s.handleLocalize)
	s.mux.Handle("GET /dashboard", Dashboard())
	return s, nil
}

// jsonError writes an error payload with an explicit JSON content-type, so
// API clients on the /localize path never have to sniff a text/plain body.
func jsonError(w http.ResponseWriter, msg string, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>causalfl</title></head><body>
<h1>causalfl — interventional causal fault localization</h1>
<p>Model: {{.Services}} services, {{.Metrics}} metrics, {{.Targets}} trained
targets, &alpha;={{printf "%.2f" .Alpha}}.</p>
<ul>
<li><a href="/worlds">Per-metric causal worlds</a></li>
<li><code>POST /localize</code> with a production snapshot JSON body
(the <code>metrics.Snapshot</code> format) returns the candidate fault set.</li>
<li><a href="/dashboard">Live verdict dashboard</a> (needs the streaming
API of <code>causalfl serve</code> on this host)</li>
<li><a href="/healthz">Health</a> (served by <code>causalfl serve</code>)</li>
</ul>
</body></html>
`))

// handleIndex renders the overview.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	data := struct {
		Services, Metrics, Targets int
		Alpha                      float64
	}{len(s.model.Services), len(s.model.Metrics), len(s.model.Targets), s.model.Alpha}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

var worldsTmpl = template.Must(template.New("worlds").Parse(`<!DOCTYPE html>
<html><head><title>causal worlds</title></head><body>
<h1>Per-metric causal worlds</h1>
<p>C(s, M): the services whose metric-M distribution shifts when a fault is
injected into s. One world per metric — they genuinely differ.</p>
{{range .Worlds}}
<h2>metric {{.Metric}}</h2>
<table border="1" cellpadding="4">
<tr><th>injected service</th><th>causal set</th></tr>
{{range .Rows}}<tr><td>{{.Target}}</td><td>{{.Set}}</td></tr>
{{end}}
</table>
{{end}}
</body></html>
`))

// handleWorlds renders the causal sets.
func (s *Server) handleWorlds(w http.ResponseWriter, _ *http.Request) {
	type row struct{ Target, Set string }
	type world struct {
		Metric string
		Rows   []row
	}
	var data struct{ Worlds []world }
	for _, metric := range s.model.Metrics {
		wld := world{Metric: metric}
		for _, target := range s.model.Targets {
			set, err := s.model.CausalSet(metric, target)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			wld.Rows = append(wld.Rows, row{Target: target, Set: join(set)})
		}
		data.Worlds = append(data.Worlds, wld)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := worldsTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// localizeResponse is the JSON shape of POST /localize.
type localizeResponse struct {
	Candidates []string            `json:"candidates"`
	Abstained  bool                `json:"abstained,omitempty"`
	Votes      map[string]float64  `json:"votes"`
	Anomalies  map[string][]string `json:"anomalies"`
}

// handleLocalize runs Algorithm 2 on a posted snapshot.
func (s *Server) handleLocalize(w http.ResponseWriter, r *http.Request) {
	// The body is one JSON value of at most maxBodyBytes: json.Unmarshal
	// refuses trailing data, which a streaming Decode would ignore.
	var snap metrics.Snapshot
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, &snap)
	}
	if err != nil {
		jsonError(w, fmt.Sprintf("decode snapshot: %v", err), http.StatusBadRequest)
		return
	}
	// Tolerant validation: production snapshots may legitimately arrive
	// with missing (metric, service) pairs when telemetry is degraded; the
	// localizer handles those (abstaining if need be) rather than erroring.
	if err := snap.ValidateTolerant(); err != nil {
		jsonError(w, fmt.Sprintf("invalid snapshot: %v", err), http.StatusBadRequest)
		return
	}
	// The localizer tolerates degraded snapshots (missing pairs, short
	// series), but the HTTP contract stays strict about the *declared*
	// universe: a snapshot over different metrics or services is a client
	// mix-up, not telemetry degradation.
	if err := universeMatches(s.model, &snap); err != nil {
		jsonError(w, fmt.Sprintf("localize: %v", err), http.StatusUnprocessableEntity)
		return
	}
	loc, err := s.localizer.Localize(r.Context(), s.model, &snap)
	if err != nil {
		jsonError(w, fmt.Sprintf("localize: %v", err), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(localizeResponse{
		Candidates: loc.Candidates,
		Abstained:  loc.Abstained,
		Votes:      loc.Votes,
		Anomalies:  loc.Anomalies,
	}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// universeMatches checks that the posted snapshot declares every metric and
// service the model was trained on.
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

// join renders a set compactly.
func join(set []string) string {
	out := ""
	for i, s := range set {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}
