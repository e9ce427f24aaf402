package sim

import (
	"fmt"
	"time"
)

// Default tuning constants. They are deliberately modest: the experiments in
// this repository care about distribution *shifts*, not absolute latencies.
const (
	// DefaultCapacity is the number of requests a service handles
	// concurrently when ServiceConfig.Capacity is zero.
	DefaultCapacity = 16
	// DefaultKVOpCost is the CPU time a key-value store spends per
	// operation when ServiceConfig.KVOpCost is zero.
	DefaultKVOpCost = 300 * time.Microsecond
	// errorRateFaultCost is the handler time consumed before an
	// error-rate fault responds with an injected error.
	errorRateFaultCost = 500 * time.Microsecond
)

// ServiceConfig declares one microservice of the cluster.
type ServiceConfig struct {
	// Name identifies the service; it must be unique within the cluster.
	Name string
	// Capacity bounds concurrent request handling (worker threads).
	// Zero means DefaultCapacity.
	Capacity int
	// QueueLimit bounds the backlog of admitted-but-unserved requests.
	// Zero means unbounded.
	QueueLimit int
	// Endpoints lists the handlers this service exposes. Ignored for KV
	// services.
	Endpoints []Endpoint
	// KV marks the service as a key-value store (the CausalBench node D).
	KV bool
	// KVOpCost is the CPU cost of one KV operation; zero means
	// DefaultKVOpCost.
	KVOpCost time.Duration
	// SuppressErrorLogs prevents the service from writing error log lines
	// when downstream calls fail — the "developer catches the exception
	// silently" behaviour from §III-B of the paper. The zero value keeps
	// the conventional behaviour of logging every observed error.
	SuppressErrorLogs bool
	// DropTraceContext models a service without tracing instrumentation:
	// its downstream calls start fresh traces instead of continuing the
	// caller's, breaking the span tree (the partial-adoption reality the
	// paper's introduction describes).
	DropTraceContext bool
}

// faultState carries the active chaos injections of a service. The paper's
// evaluation uses only Unavailable; the rest are extension fault types.
// scrapeLoss and corruption act on the observability plane: they degrade what
// a telemetry scrape of the service reports without touching the service.
type faultState struct {
	unavailable  bool
	extraLatency time.Duration
	errorRate    float64
	paused       bool
	scrapeLoss   float64
	corruption   float64
}

// Result is the outcome of a call delivered to the caller's continuation.
type Result struct {
	// Err is nil on success.
	Err error
	// Value carries the result of KV operations.
	Value int64
}

// Service is one simulated microservice: a named queueing station with a
// fixed worker capacity, declarative request handlers, cumulative telemetry
// counters, and chaos-controllable fault state.
type Service struct {
	cluster   *Cluster
	cfg       ServiceConfig
	endpoints map[string]*handler
	counters  Counters
	fault     faultState
	busy      int
	queue     fifo
	kv        map[string]int64
	node      *node
	// The errors this service's faults answer with; they never change, so
	// each is built once.
	errUnavailable error
	errQueueFull   error
	errInjected    error
}

// handler is an endpoint prepared for execution: its steps and the run-time
// state each step keeps.
type handler struct {
	name  string
	steps []Step
	state []stepState
}

// stepState is the run-time state of one handler step.
type stepState struct {
	// target and ep cache a call step's resolved target service and its
	// handler, once the service is registered.
	target *Service
	ep     *handler
	// runs counts the executions of a LogEveryN step.
	runs uint64
}

// fifo is the queue of admitted requests waiting for a worker slot: a ring
// that reuses its storage.
type fifo struct {
	buf  []*request
	head int
	n    int
}

func (q *fifo) push(req *request) {
	if q.n == len(q.buf) {
		grown := make([]*request, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	tail := q.head + q.n
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	q.buf[tail] = req
	q.n++
}

func (q *fifo) pop() *request {
	req := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return req
}

func newService(c *Cluster, cfg ServiceConfig) (*Service, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("sim: service name must not be empty")
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("sim: service %q: capacity must be positive, got %d", cfg.Name, cfg.Capacity)
	}
	if cfg.KVOpCost == 0 {
		cfg.KVOpCost = DefaultKVOpCost
	}
	s := &Service{
		cluster:        c,
		cfg:            cfg,
		endpoints:      make(map[string]*handler, len(cfg.Endpoints)),
		errUnavailable: fmt.Errorf("%s: %w", cfg.Name, ErrServiceUnavailable),
		errQueueFull:   fmt.Errorf("%s: %w", cfg.Name, ErrQueueFull),
		errInjected:    fmt.Errorf("%s: %w", cfg.Name, ErrInjectedFault),
	}
	if cfg.KV {
		s.kv = make(map[string]int64)
	}
	for _, ep := range cfg.Endpoints {
		if _, dup := s.endpoints[ep.Name]; dup {
			return nil, fmt.Errorf("sim: service %q: duplicate endpoint %q", cfg.Name, ep.Name)
		}
		s.endpoints[ep.Name] = &handler{name: ep.Name, steps: ep.Steps, state: make([]stepState, len(ep.Steps))}
	}
	return s, nil
}

// Name returns the service name.
func (s *Service) Name() string { return s.cfg.Name }

// Counters returns a copy of the cumulative telemetry counters.
func (s *Service) Counters() Counters { return s.counters }

// IsKV reports whether the service is a key-value store.
func (s *Service) IsKV() bool { return s.cfg.KV }

// Endpoints returns the endpoint names the service exposes, in declaration
// order.
func (s *Service) Endpoints() []string {
	names := make([]string, 0, len(s.cfg.Endpoints))
	for i := range s.cfg.Endpoints {
		names = append(names, s.cfg.Endpoints[i].Name)
	}
	return names
}

// KVValue reads a key directly from a KV service's state, bypassing the
// simulation. It exists for tests and inspection; simulated components must
// use CallKV.
func (s *Service) KVValue(key string) int64 { return s.kv[key] }

// Capacity reports the current concurrent-handling capacity (worker slots ×
// replicas).
func (s *Service) Capacity() int { return s.cfg.Capacity }

// SetCapacity resets the worker capacity — the horizontal-scaling
// intervention (adding or removing replicas multiplies the worker pool).
// Values below one are clamped to one: a service cannot scale to zero
// workers. The new capacity takes effect at the next dispatch opportunity
// (request arrival or handler completion), matching how the autoscaler's
// replica changes have always applied.
func (s *Service) SetCapacity(n int) {
	if n < 1 {
		n = 1
	}
	s.cfg.Capacity = n
}

// SetUnavailable toggles the paper's http-service-unavailable fault: while
// set, every call to the service fails fast without reaching it.
func (s *Service) SetUnavailable(v bool) { s.fault.unavailable = v }

// Unavailable reports whether the service-unavailable fault is active.
func (s *Service) Unavailable() bool { return s.fault.unavailable }

// SetExtraLatency injects d of additional delay at the start of every
// handler execution (extension fault type).
func (s *Service) SetExtraLatency(d time.Duration) { s.fault.extraLatency = d }

// SetErrorRate makes the fraction p of handled requests fail with
// ErrInjectedFault (extension fault type). p is clamped to [0, 1].
func (s *Service) SetErrorRate(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s.fault.errorRate = p
}

// SetPaused suspends background pollers attached to this service
// (process-kill extension fault). It has no effect on request handling.
func (s *Service) SetPaused(v bool) { s.fault.paused = v }

// SetScrapeLossRate makes the fraction p of telemetry scrapes of this service
// fail (telemetry-plane fault: the service keeps running, its monitoring goes
// dark intermittently). p is clamped to [0, 1].
func (s *Service) SetScrapeLossRate(p float64) { s.fault.scrapeLoss = clamp01(p) }

// ScrapeLossRate reports the active scrape-loss fraction.
func (s *Service) ScrapeLossRate() float64 { return s.fault.scrapeLoss }

// SetSampleCorruptionRate makes the fraction p of telemetry scrapes of this
// service return corrupted readings (telemetry-plane fault). p is clamped to
// [0, 1].
func (s *Service) SetSampleCorruptionRate(p float64) { s.fault.corruption = clamp01(p) }

// SampleCorruptionRate reports the active sample-corruption fraction.
func (s *Service) SampleCorruptionRate() float64 { return s.fault.corruption }

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// ScrapeResult is one attempted telemetry read of a service's counters.
type ScrapeResult struct {
	// Counters holds the cumulative counters at scrape time. Meaningless
	// when Missing is set.
	Counters Counters
	// Missing marks a scrape dropped by an active scrape-loss fault.
	Missing bool
	// Corrupt marks a reading mangled by an active sample-corruption
	// fault. The counters themselves are the true values; the collector is
	// responsible for mangling the derived sample, so that the cumulative
	// stream it differences against stays consistent.
	Corrupt bool
}

// Scrape reads the cumulative counters the way a monitoring scrape would,
// subject to the service's telemetry-plane fault state. With no telemetry
// fault active it consumes no randomness, so fault-free runs are
// bit-identical to runs that never call into the fault path.
func (s *Service) Scrape() ScrapeResult {
	if p := s.fault.scrapeLoss; p > 0 && s.cluster.eng.Rand().Float64() < p {
		return ScrapeResult{Missing: true}
	}
	res := ScrapeResult{Counters: s.counters}
	if p := s.fault.corruption; p > 0 && s.cluster.eng.Rand().Float64() < p {
		res.Corrupt = true
	}
	return res
}

// log records one console log line.
func (s *Service) log(isError bool) {
	s.counters.LogMessages++
	if isError {
		s.counters.ErrorLogMessages++
	}
}

// observeDownstreamError records a failed downstream call and, unless the
// service suppresses error logs, writes an error log line. This is the
// mechanism by which faults become visible on the response path (§III-A).
func (s *Service) observeDownstreamError() {
	s.counters.ErrorsObserved++
	if !s.cfg.SuppressErrorLogs {
		s.log(true)
	}
}

// handleArrival admits a request (already past the network) into the queue.
func (s *Service) handleArrival(req *request) {
	s.counters.RxPackets++
	if s.cfg.QueueLimit > 0 && s.busy >= s.cfg.Capacity && s.queue.n >= s.cfg.QueueLimit {
		s.counters.QueueDrops++
		s.respond(req, Result{Err: s.errQueueFull})
		return
	}
	s.counters.RequestsReceived++
	s.queue.push(req)
	s.dispatch()
}

// dispatch starts handlers while worker slots and queued work are available.
func (s *Service) dispatch() {
	for s.busy < s.cfg.Capacity && s.queue.n > 0 {
		s.busy++
		s.start(s.queue.pop())
	}
}

// start begins executing one admitted request on an occupied worker slot.
func (s *Service) start(req *request) {
	req.startedAt = s.cluster.eng.Now()
	if d := s.fault.extraLatency; d > 0 {
		s.cluster.eng.afterReq(d, evBegin, req, 0)
		return
	}
	s.begin(req)
}

// begin runs the handler once any injected start delay has elapsed.
func (s *Service) begin(req *request) {
	if p := s.fault.errorRate; p > 0 && s.cluster.eng.Rand().Float64() < p {
		s.addCPU(errorRateFaultCost)
		s.finish(req, Result{Err: s.errInjected})
		return
	}
	if s.cfg.KV {
		s.startKV(req)
		return
	}
	if req.isKV {
		s.finish(req, Result{Err: fmt.Errorf("%s: kv operation sent to non-kv service", s.cfg.Name)})
		return
	}
	if req.ep == nil {
		s.finish(req, Result{Err: &UnknownEndpointError{Service: s.cfg.Name, Endpoint: req.endpoint}})
		return
	}
	s.runSteps(req)
}

// startKV executes a key-value operation after its CPU cost elapses. The
// cost carries one third of jitter so that the store's CPU metrics have the
// continuous variance of a real container rather than a deterministic
// per-op constant.
func (s *Service) startKV(req *request) {
	if !req.isKV {
		s.finish(req, Result{Err: fmt.Errorf("%s: non-kv request sent to kv service", s.cfg.Name)})
		return
	}
	s.computeOn(req, s.sampleCompute(Compute{Mean: s.cfg.KVOpCost, Jitter: s.cfg.KVOpCost / 3}))
}

// computed runs when req's compute ends: a KV operation applies and
// answers; a handler moves on to its next step.
func (s *Service) computed(req *request) {
	if n := req.node; n != nil {
		n.active--
		req.node = nil
	}
	if s.cfg.KV {
		s.finish(req, Result{Value: req.kv.apply(s.kv)})
		return
	}
	req.step++
	s.runSteps(req)
}

// runSteps executes the handler program from step req.step onward, until a
// step waits on the event loop (compute, a blocking call) or the program
// ends.
func (s *Service) runSteps(req *request) {
	h := req.ep
	for ; req.step < len(h.steps); req.step++ {
		i := req.step
		switch step := h.steps[i].(type) {
		case Compute:
			s.computeOn(req, s.sampleCompute(step))
			return
		case CallStep:
			if step.Async {
				call := s.newCall(h, i, step.Target, step.Endpoint)
				call.then = thenAsync
				s.issue(req, call, step.Target)
				continue
			}
			req.attempt = 0
			s.callOnce(req, step)
			return
		case KVIncr, KVCall:
			kv := kvStep(step)
			call := s.newCall(h, i, kv.Store, "")
			call.kv, call.isKV = KVOp{Kind: kv.Op, Key: kv.Key, Delta: kv.Delta}, true
			s.block(req, call)
			s.issue(req, call, kv.Store)
			return
		case LogEveryN:
			st := &h.state[i]
			st.runs++
			n := step.N
			if n <= 1 {
				n = 1
			}
			if st.runs%n == 0 {
				s.log(step.Error)
			}
		case LogSampled:
			if step.P > 0 && s.cluster.eng.Rand().Float64() < step.P {
				s.log(step.Error)
			}
		default:
			s.finish(req, Result{Err: fmt.Errorf("%s: endpoint %q: unsupported step %T", s.cfg.Name, h.name, step)})
			return
		}
	}
	s.finish(req, Result{})
}

// kvStep reads a KV step as the general KVCall (KVIncr is its sugar).
func kvStep(step Step) KVCall {
	if incr, ok := step.(KVIncr); ok {
		return KVCall{Store: incr.Store, Op: KVIncrBy, Key: incr.Key, Delta: incr.Delta}
	}
	kv, _ := step.(KVCall)
	return kv
}

// newCall prepares a downstream request for step i of handler h, resolving
// (and caching, once it exists) the target service and its handler.
func (s *Service) newCall(h *handler, i int, target, endpoint string) *request {
	st := &h.state[i]
	if st.target == nil {
		if tgt, ok := s.cluster.services[target]; ok {
			st.target, st.ep = tgt, tgt.endpoints[endpoint]
		}
	}
	call := s.cluster.newRequest(s, s.cfg.Name, endpoint)
	call.target, call.ep = st.target, st.ep
	return call
}

// block makes call the attempt the handler serving req waits on.
func (s *Service) block(req, call *request) {
	req.wait = s.cluster.newToken()
	call.then, call.parent, call.tok = thenStep, req, req.wait
}

// callOnce issues one attempt of a blocking CallStep, with its timeout.
func (s *Service) callOnce(req *request, step CallStep) {
	call := s.newCall(req.ep, req.step, step.Target, step.Endpoint)
	s.block(req, call)
	s.issue(req, call, step.Target)
	if step.Timeout > 0 {
		s.cluster.eng.afterReq(step.Timeout, evTimeout, req, req.wait)
	}
}

// settle hands the outcome of the blocking call the handler serving req
// waits on to its current step. A failed attempt is observed (error log
// included unless suppressed) and retried while the step's retries last;
// a final failure aborts the handler unless the step ignores errors.
func (s *Service) settle(req *request, res Result) {
	req.wait = 0
	if res.Err != nil {
		s.observeDownstreamError()
		var failed *DownstreamError
		switch step := req.ep.steps[req.step].(type) {
		case CallStep:
			if req.attempt < step.Retries {
				req.attempt++
				s.callOnce(req, step)
				return
			}
			if !step.IgnoreError {
				failed = &DownstreamError{Caller: s.cfg.Name, Target: step.Target, Endpoint: step.Endpoint, Err: res.Err}
			}
		default:
			if kv := kvStep(step); !kv.IgnoreError {
				failed = &DownstreamError{Caller: s.cfg.Name, Target: kv.Store, Endpoint: kv.Op.String() + " " + kv.Key, Err: res.Err}
			}
		}
		if failed != nil {
			s.finish(req, Result{Err: failed})
			return
		}
	}
	req.step++
	s.runSteps(req)
}

// issue sends call on behalf of the handler serving parent, propagating (or,
// for un-instrumented services, dropping) its trace context.
func (s *Service) issue(parent, call *request, target string) {
	ctx := parent.trace
	if s.cfg.DropTraceContext {
		ctx = traceCtx{}
	}
	s.cluster.send(s.cluster.childCtx(ctx), call, target)
}

// sampleCompute draws a compute duration uniformly from Mean±Jitter,
// clamped to be non-negative.
func (s *Service) sampleCompute(c Compute) time.Duration {
	d := c.Mean
	if c.Jitter > 0 {
		span := 2 * int64(c.Jitter)
		d += time.Duration(s.cluster.eng.Rand().Int63n(span)) - c.Jitter
	}
	if d < 0 {
		d = 0
	}
	return d
}

// addCPU accrues handler CPU time to the service's counters.
func (s *Service) addCPU(d time.Duration) {
	if d > 0 {
		s.counters.CPUSeconds += d.Seconds()
	}
}

// finish releases the worker slot, accounts the response, and sends it back
// to the caller across the network.
func (s *Service) finish(req *request, res Result) {
	s.busy--
	s.counters.BusySeconds += (s.cluster.eng.Now() - req.startedAt).Seconds()
	if res.Err != nil {
		s.counters.ResponsesErr++
	} else {
		s.counters.ResponsesOK++
	}
	s.respond(req, res)
	s.dispatch()
}

// respond transmits a response packet back to the caller.
func (s *Service) respond(req *request, res Result) {
	s.counters.TxPackets++
	req.res = res
	s.cluster.eng.afterReq(s.cluster.netLatency(), evDeliver, req, 0)
}
