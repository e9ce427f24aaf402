package sim

import (
	"fmt"
	"time"
)

// Default network parameters. A request or response packet takes
// DefaultNetworkDelay ± DefaultNetworkJitter to traverse the network; a call
// to an unavailable service is refused after DefaultFailFastDelay (the TCP
// RST of the paper's dead-port injection).
const (
	DefaultNetworkDelay   = 500 * time.Microsecond
	DefaultNetworkJitter  = 200 * time.Microsecond
	DefaultFailFastDelay  = 1 * time.Millisecond
	defaultPollerCapacity = 1
)

// ClusterOption customizes a Cluster.
type ClusterOption func(*Cluster)

// WithNetworkDelay sets the base one-way network delay and its uniform
// jitter.
func WithNetworkDelay(base, jitter time.Duration) ClusterOption {
	return func(c *Cluster) {
		c.netDelay = base
		c.netJitter = jitter
	}
}

// WithFailFastDelay sets how quickly calls to an unavailable service fail.
func WithFailFastDelay(d time.Duration) ClusterOption {
	return func(c *Cluster) { c.failFast = d }
}

// Cluster is a set of services sharing one event engine and network model.
type Cluster struct {
	// err records a construction error (nil engine). It surfaces from every
	// fallible operation instead of panicking in library code.
	err          error
	eng          *Engine
	services     map[string]*Service
	order        []string
	pollers      []*Poller
	netDelay     time.Duration
	netJitter    time.Duration
	failFast     time.Duration
	spanObserver SpanObserver
	lastTraceID  uint64
	lastSpanID   uint64
	nodes        map[string]*node
	// free holds released request records for reuse.
	free []*request
	// lastToken numbers the attempts of blocking calls (request.wait).
	lastToken uint64
}

// NewCluster creates an empty cluster on eng. A nil engine is a
// configuration error; it is reported by the first fallible operation
// (AddService, AddPoller, Call) rather than by panicking here.
func NewCluster(eng *Engine, opts ...ClusterOption) *Cluster {
	c := &Cluster{
		eng:       eng,
		services:  make(map[string]*Service),
		netDelay:  DefaultNetworkDelay,
		netJitter: DefaultNetworkJitter,
		failFast:  DefaultFailFastDelay,
	}
	if eng == nil {
		c.err = ErrNilEngine
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Engine returns the event engine the cluster runs on.
func (c *Cluster) Engine() *Engine { return c.eng }

// AddService registers a service defined by cfg.
func (c *Cluster) AddService(cfg ServiceConfig) (*Service, error) {
	if c.err != nil {
		return nil, c.err
	}
	if _, dup := c.services[cfg.Name]; dup {
		return nil, fmt.Errorf("sim: duplicate service %q", cfg.Name)
	}
	s, err := newService(c, cfg)
	if err != nil {
		return nil, err
	}
	c.services[cfg.Name] = s
	c.order = append(c.order, cfg.Name)
	return s, nil
}

// MustAddService is AddService for static topologies built at program start;
// it panics on configuration errors.
func (c *Cluster) MustAddService(cfg ServiceConfig) *Service {
	s, err := c.AddService(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Service returns the named service.
func (c *Cluster) Service(name string) (*Service, bool) {
	s, ok := c.services[name]
	return s, ok
}

// ServiceNames returns the registered service names in registration order.
// The slice is a copy; callers may modify it.
func (c *Cluster) ServiceNames() []string {
	names := make([]string, len(c.order))
	copy(names, c.order)
	return names
}

// CountersByService snapshots the telemetry counters of every service.
func (c *Cluster) CountersByService() map[string]Counters {
	out := make(map[string]Counters, len(c.services))
	for name, s := range c.services {
		out[name] = s.counters
	}
	return out
}

// netLatency samples one one-way network traversal time.
func (c *Cluster) netLatency() time.Duration {
	d := c.netDelay
	if c.netJitter > 0 {
		d += time.Duration(c.eng.Rand().Int63n(int64(c.netJitter)))
	}
	return d
}

// Call issues a request from the named caller to target/endpoint and invokes
// done with the outcome when the response (or refusal) arrives. The caller
// name may be unknown to the cluster (an external client such as the load
// generator); in that case only the target's counters advance.
func (c *Cluster) Call(from, target, endpoint string, done func(Result)) {
	c.clientCall(c.services[from], from, target, endpoint, KVOp{}, false, done)
}

// CallKV issues a key-value operation against a KV store service.
func (c *Cluster) CallKV(from, store string, op KVOp, done func(Result)) {
	c.clientCall(c.services[from], from, store, "", op, true, done)
}

// clientCall issues a call from outside any handler (a load generator, a
// poller body, a test), so it starts a new trace.
func (c *Cluster) clientCall(caller *Service, from, target, endpoint string, kv KVOp, isKV bool, done func(Result)) {
	ctx := c.newTraceCtx()
	if c.err != nil {
		// No engine: fail synchronously without opening a span.
		if done != nil {
			done(Result{Err: c.err})
		}
		return
	}
	req := c.newRequest(caller, from, endpoint)
	if tgt, ok := c.services[target]; ok {
		req.target, req.ep = tgt, tgt.endpoints[endpoint]
	}
	req.kv, req.isKV = kv, isKV
	req.then, req.done = thenFunc, done
	c.send(ctx, req, target)
}

// then says what a response does when it reaches the caller.
type then uint8

const (
	thenFunc  then = iota // call done (a client's callback)
	thenAsync             // count a failure on the caller, nothing more
	thenStep              // settle the caller's blocking step, attempt tok
)

// request is one call in flight, from its issue to the delivery of its
// response (or refusal) to the caller, and the state of the target's handler
// while it serves the call. The hot events act on request records instead of
// closures; the cluster pools them, releasing each once its response has
// been delivered.
type request struct {
	cluster  *Cluster
	caller   *Service // nil for a client outside the cluster
	target   *Service // nil when no such service is registered
	from     string
	to       string
	endpoint string
	ep       *handler // the target's handler; nil for KV operations and unknown endpoints
	kv       KVOp
	isKV     bool

	// trace is the context the handler runs under: the trace and this
	// call's span. spanParent and spanStart complete the span.
	trace      traceCtx
	spanParent uint64
	spanStart  Time

	// The handler's progress.
	startedAt Time
	step      int    // index of the step being executed
	attempt   int    // retries spent on the current CallStep
	wait      uint64 // the blocking attempt the handler waits on; 0 when none
	node      *node  // the node charged for the compute in flight

	// The outcome and what it does on arrival.
	res    Result
	then   then
	done   func(Result)
	parent *request // the handler blocked on this call (thenStep)
	tok    uint64   // the parent's attempt this call answers (thenStep)
}

// newRequest takes a record from the pool and addresses it from the caller.
func (c *Cluster) newRequest(caller *Service, from, endpoint string) *request {
	var req *request
	if n := len(c.free); n > 0 {
		req = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		req = &request{cluster: c}
	}
	req.caller, req.from, req.endpoint = caller, from, endpoint
	return req
}

// release returns a delivered request's record to the pool.
func (c *Cluster) release(req *request) {
	*req = request{cluster: c}
	c.free = append(c.free, req)
}

// newToken numbers one attempt of a blocking call. Tokens are never reused,
// so a timeout or a late response naming an attempt that has settled (even on
// a record since released and reused) finds no match and is discarded.
func (c *Cluster) newToken() uint64 {
	c.lastToken++
	return c.lastToken
}

// send opens req's span under ctx and puts the request on the network
// towards target; req.target (nil when the name is unknown) is already set.
func (c *Cluster) send(ctx traceCtx, req *request, target string) {
	c.lastSpanID++
	req.to = target
	req.trace = traceCtx{traceID: ctx.traceID, spanID: c.lastSpanID}
	req.spanParent = ctx.spanID
	req.spanStart = c.eng.Now()
	if req.caller != nil {
		req.caller.counters.RequestsSent++
		req.caller.counters.TxPackets++
	}
	tgt := req.target
	switch {
	case tgt == nil:
		req.res = Result{Err: &UnknownServiceError{Name: target}}
		c.eng.afterReq(0, evDeliver, req, 0)
	case tgt.fault.unavailable:
		// Connection refused: the target never sees the request; the
		// caller receives the refusal after the fail-fast delay.
		req.res = Result{Err: tgt.errUnavailable}
		c.eng.afterReq(c.netLatency()+c.failFast, evDeliver, req, 0)
	default:
		c.eng.afterReq(c.netLatency(), evArrive, req, 0)
	}
}

// deliver runs when req's response or refusal reaches the caller: it counts
// the packet, completes the span, hands the outcome on and releases the
// record.
func (c *Cluster) deliver(req *request) {
	if req.target != nil && req.caller != nil {
		req.caller.counters.RxPackets++
	}
	res := req.res
	c.finishSpan(req, res.Err != nil)
	switch req.then {
	case thenFunc:
		if req.done != nil {
			req.done(res)
		}
	case thenAsync:
		if res.Err != nil {
			req.caller.observeDownstreamError()
		}
	case thenStep:
		if p := req.parent; p.wait == req.tok {
			p.target.settle(p, res)
		}
		// Otherwise the attempt timed out first: the response is discarded.
	}
	c.release(req)
}

// timedOut fires when attempt tok of req's blocking call times out; it
// settles the call unless a response settled it first.
func (req *request) timedOut(tok uint64) {
	if req.wait != tok {
		return
	}
	s := req.target
	step, _ := req.ep.steps[req.step].(CallStep)
	s.settle(req, Result{Err: fmt.Errorf("%s/%s after %v: %w", step.Target, step.Endpoint, step.Timeout, ErrCallTimeout)})
}
