package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"causalfl/internal/core"
	"causalfl/internal/telemetry"
)

// ErrExists rejects creating a tenant that already exists.
var ErrExists = errors.New("serve: tenant already exists")

// maxBodyBytes caps request bodies; a batch of telemetry ticks for a few
// hundred services fits comfortably, a hostile multi-gigabyte body does not.
const maxBodyBytes = 8 << 20

// maxPooledBody caps the body buffers kept for reuse. A buffer that grew
// past it (a rare huge batch, a model upload) is left to the collector, so
// one large request does not pin its size in the pool.
const maxPooledBody = 1 << 20

// Options configures a Server.
type Options struct {
	// Store persists tenant snapshots; required.
	Store *Store
	// Defaults overlays zero fields of every tenant's config (its own zero
	// fields fall back to the package defaults).
	Defaults TenantConfig
}

// Server hosts independent per-tenant pipelines behind the HTTP API
// documented in docs/SERVING.md. One consumer goroutine per tenant owns that
// tenant's pipeline; handlers only touch queues and locked bookkeeping, so a
// stalled tenant cannot delay another tenant's verdicts. A flooding one
// still shares the CPU with it.
type Server struct {
	opts Options
	mux  *http.ServeMux

	mu       sync.RWMutex
	tenants  map[string]*tenant
	draining bool
}

// NewServer builds a server and restores every tenant found in the store —
// crash recovery is the default boot path, not a special mode. A corrupt
// snapshot fails the boot explicitly: silently starting that tenant fresh
// would discard its baselines behind the operator's back.
func NewServer(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("serve: nil store")
	}
	if opts.Defaults.QueueCap > maxQueueCap {
		return nil, fmt.Errorf("serve: default queue capacity %d > %d", opts.Defaults.QueueCap, maxQueueCap)
	}
	s := &Server{opts: opts, tenants: make(map[string]*tenant)}
	names, err := opts.Store.List()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		snap, err := opts.Store.Load(name)
		if err != nil {
			return nil, fmt.Errorf("serve: restore on boot: %w", err)
		}
		t, err := newTenant(name, snap.Config, snap.Model, opts.Store, snap)
		if err != nil {
			return nil, fmt.Errorf("serve: restore on boot: %w", err)
		}
		s.tenants[name] = t
		//vet:allow unbounded-spawn -- one long-lived worker per restored tenant, bounded by the store's tenant count
		go t.run()
	}
	s.routes()
	return s, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// routes wires the API. Method-qualified patterns give wrong-method requests
// an automatic 405 with an Allow header.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}", s.handleCreateTenant)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}", s.handleGetTenant)
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleDeleteTenant)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/verdicts", s.handleVerdicts)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/stats", s.handleTenantStats)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/snapshot", s.handleSnapshot)
}

// jsonError writes a JSON error body with an explicit content type.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client is gone; there is no one to tell.
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes a 200/201/202 JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client is gone; there is no one to tell.
	_ = json.NewEncoder(w).Encode(v)
}

// bodies holds the request-body buffers of finished requests.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a request body of at most maxBodyBytes into a buffer from
// the pool. The buffer grows with the bytes that arrive, not with a length
// the client claims. The handler passes it to releaseBody once its response
// is written, and nothing the request leaves behind may alias its bytes.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return buf, err
}

// releaseBody returns a body buffer to the pool, unless it grew past
// maxPooledBody.
func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodies.Put(buf)
	}
}

// tenantFor resolves the path's tenant or writes a 404.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) *tenant {
	name := r.PathValue("tenant")
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t == nil {
		jsonError(w, http.StatusNotFound, "no tenant %q", name)
		return nil
	}
	return t
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	n := len(s.tenants)
	s.mu.RUnlock()
	if draining {
		jsonError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "tenants": n})
}

// ServerStats is the fleet-wide accounting the /v1/stats endpoint returns.
type ServerStats struct {
	Tenants []TenantStats `json:"tenants"`
	// Shed and Processed are totals across tenants.
	Shed      uint64 `json:"shed"`
	Processed uint64 `json:"processed"`
	Draining  bool   `json:"draining,omitempty"`
}

// Stats returns the fleet-wide accounting.
func (s *Server) Stats() ServerStats {
	s.mu.RLock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	draining := s.draining
	s.mu.RUnlock()

	out := ServerStats{Tenants: make([]TenantStats, 0, len(ts)), Draining: draining}
	for _, t := range ts {
		st := t.snapshotStats()
		out.Shed += st.Shed
		out.Processed += st.Processed
		out.Tenants = append(out.Tenants, st)
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Tenant < out.Tenants[j].Tenant })
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"tenants": names})
}

// createTenantRequest is the PUT body: the tenant's config plus its trained
// model (the causalfl-train output, core.Model JSON).
type createTenantRequest struct {
	Config TenantConfig `json:"config"`
	Model  *core.Model  `json:"model"`
}

// overlay fills zero serving fields from the server-wide defaults.
func overlay(cfg, def TenantConfig) TenantConfig {
	if cfg.WindowLength == 0 {
		cfg.WindowLength = def.WindowLength
	}
	if cfg.WindowHop == 0 {
		cfg.WindowHop = def.WindowHop
	}
	if cfg.Preset == "" {
		cfg.Preset = def.Preset
	}
	if cfg.Window == 0 {
		cfg.Window = def.Window
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = def.QueueCap
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = def.SnapshotEvery
	}
	if cfg.VerdictLog == 0 {
		cfg.VerdictLog = def.VerdictLog
	}
	return cfg
}

// CreateTenant registers a tenant programmatically (the PUT handler in
// library form) and writes its initial snapshot so the tenant survives a
// crash that happens before its first periodic snapshot.
func (s *Server) CreateTenant(ctx context.Context, name string, cfg TenantConfig, model *core.Model) error {
	if model == nil {
		return fmt.Errorf("serve: tenant %q: nil model", name)
	}
	cfg = overlay(cfg, s.opts.Defaults)
	if err := checkBounds(name, cfg, model); err != nil {
		return err
	}
	t, err := newTenant(name, cfg, model, s.opts.Store, nil)
	if err != nil {
		return err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	if _, ok := s.tenants[name]; ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	s.tenants[name] = t
	s.mu.Unlock()

	go t.run()
	// The initial snapshot makes creation itself crash-safe. Going through
	// the barrier keeps every Save on the consumer goroutine.
	if err := t.barrier(ctx, true); err != nil {
		return fmt.Errorf("serve: tenant %q: initial snapshot: %w", name, err)
	}
	return nil
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if err := ValidTenantName(name); err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// json.Unmarshal copies every string and value out of the body, so the
	// model the tenant keeps does not alias the pooled buffer.
	var req createTenantRequest
	body, err := readBody(w, r)
	defer releaseBody(body)
	if err == nil {
		err = json.Unmarshal(body.Bytes(), &req)
	}
	if err != nil {
		jsonError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Model == nil {
		jsonError(w, http.StatusBadRequest, "request has no model")
		return
	}
	if err := s.CreateTenant(r.Context(), name, req.Config, req.Model); err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrDraining):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrExists):
			code = http.StatusConflict
		}
		jsonError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"tenant": name})
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": t.name, "config": t.cfg, "stats": t.snapshotStats()})
}

// DeleteTenant drains a tenant and removes it with its snapshot.
func (s *Server) DeleteTenant(name string) error {
	s.mu.Lock()
	t := s.tenants[name]
	delete(s.tenants, name)
	s.mu.Unlock()
	if t == nil {
		return fmt.Errorf("serve: no tenant %q", name)
	}
	t.beginShutdown(true) // deletion discards state; no final snapshot
	<-t.done
	return s.opts.Store.Delete(name)
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if err := s.DeleteTenant(name); err != nil {
		jsonError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	body, err := readBody(w, r)
	defer releaseBody(body)
	var ticks []map[string][]telemetry.Sample
	if err == nil {
		ticks, err = decodeIngest(body.Bytes(), t.services)
	}
	if err != nil {
		jsonError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(ticks) == 0 {
		jsonError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if err := t.validateTicks(ticks); err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := t.enqueueBatch(ticks); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrDraining):
			jsonError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			jsonError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"accepted": len(ticks)})
}

// verdictsResponse is the GET /verdicts body.
type verdictsResponse struct {
	Verdicts []SeqVerdict `json:"verdicts"`
	// Next is the newest sequence number the tenant has emitted; pass it
	// back as ?since= to continue the timeline.
	Next uint64 `json:"next"`
	// Truncated reports that the requested range predates the retained ring
	// (the consumer fell too far behind or the server restarted); the gap
	// is recoverable by replaying samples, not by re-reading the log.
	Truncated bool `json:"truncated,omitempty"`
}

func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	q := r.URL.Query()
	since, err := parseUint(q.Get("since"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad since: %v", err)
		return
	}
	max, err := parseUint(q.Get("max"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad max: %v", err)
		return
	}

	vs, newest, truncated, next := t.verdictsSince(since, int(max))
	if len(vs) == 0 && q.Get("wait") != "" {
		// Long-poll: block until the next verdict or the client gives up.
		// The wait is bounded by the request context only — this package
		// never arms a timer (project walltime invariant); clients set
		// their own deadline.
		select {
		case <-next:
			vs, newest, truncated, _ = t.verdictsSince(since, int(max))
		case <-t.done:
		case <-r.Context().Done():
		}
	}
	if vs == nil {
		vs = []SeqVerdict{}
	}
	writeJSON(w, http.StatusOK, verdictsResponse{Verdicts: vs, Next: newest, Truncated: truncated})
}

// parseUint parses a decimal query parameter, empty meaning zero.
func parseUint(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	var v uint64
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("%q is not a non-negative integer", s)
		}
		d := uint64(r - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, fmt.Errorf("%q overflows", s)
		}
		v = v*10 + d
	}
	return v, nil
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, t.snapshotStats())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	if err := t.barrier(r.Context(), true); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrDraining) {
			code = http.StatusServiceUnavailable
		}
		jsonError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshotted": t.name})
}
