package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// PollCtx is the API available to a poller body while it executes one
// iteration. All of its call methods are continuation-passing: they return
// immediately and invoke the supplied callback when the simulated operation
// completes.
type PollCtx struct {
	cluster *Cluster
	svc     *Service
}

// Now reports the current virtual time.
func (p *PollCtx) Now() Time { return p.cluster.eng.Now() }

// Compute consumes d of CPU on the poller's service, then runs next.
func (p *PollCtx) Compute(d time.Duration, next func()) {
	p.svc.addCPU(d)
	p.cluster.eng.After(d, next)
}

// Call issues a synchronous request to target/endpoint on behalf of the
// poller's service.
func (p *PollCtx) Call(target, endpoint string, done func(Result)) {
	p.cluster.clientCall(p.svc, p.svc.cfg.Name, target, endpoint, KVOp{}, false, done)
}

// CallKV issues a key-value operation on behalf of the poller's service.
func (p *PollCtx) CallKV(store string, op KVOp, done func(Result)) {
	p.cluster.clientCall(p.svc, p.svc.cfg.Name, store, "", op, true, done)
}

// Log writes one console log line for the poller's service.
func (p *PollCtx) Log(isError bool) { p.svc.log(isError) }

// Rand exposes the engine's deterministic random source for stochastic
// worker behaviour (e.g. sampled logging).
func (p *PollCtx) Rand() *rand.Rand { return p.cluster.eng.Rand() }

// ObserveError records a failed downstream call (error log included unless
// the service suppresses error logs).
func (p *PollCtx) ObserveError() { p.svc.observeDownstreamError() }

// PollerConfig declares a background worker service — a component that is
// never called by anyone but acts on its own clock, like CausalBench's node
// F, which drains the `items` counter from node D and calls node G.
type PollerConfig struct {
	// Service declares the identity (name, log behaviour) of the worker.
	// Endpoints are allowed but unusual; Capacity defaults to 1.
	Service ServiceConfig
	// Interval is the pause between the end of one body execution and the
	// start of the next.
	Interval time.Duration
	// InitialDelay postpones the first iteration; zero starts at Interval.
	InitialDelay time.Duration
	// Body runs one iteration. It must invoke done exactly once when the
	// iteration is finished; the next iteration is scheduled Interval
	// later. Pausing the service (SetPaused) skips iterations.
	Body func(ctx *PollCtx, done func())
}

// Poller drives a PollerConfig on the cluster's event loop.
type Poller struct {
	cluster *Cluster
	svc     *Service
	cfg     PollerConfig
	// ctx, next and done are built once, so an iteration allocates
	// nothing of its own.
	ctx  *PollCtx
	next func() // runs the next iteration
	done func() // schedules next an interval from now
}

// AddPoller registers the worker's service and starts its polling loop.
func (c *Cluster) AddPoller(cfg PollerConfig) (*Service, error) {
	if cfg.Body == nil {
		return nil, fmt.Errorf("sim: poller %q needs a body", cfg.Service.Name)
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("sim: poller %q needs a positive interval, got %v", cfg.Service.Name, cfg.Interval)
	}
	if cfg.Service.Capacity == 0 {
		cfg.Service.Capacity = defaultPollerCapacity
	}
	svc, err := c.AddService(cfg.Service)
	if err != nil {
		return nil, err
	}
	p := &Poller{cluster: c, svc: svc, cfg: cfg, ctx: &PollCtx{cluster: c, svc: svc}}
	p.next = p.tick
	p.done = func() { c.eng.After(cfg.Interval, p.next) }
	c.pollers = append(c.pollers, p)
	start := cfg.InitialDelay
	if start <= 0 {
		start = cfg.Interval
	}
	c.eng.After(start, p.next)
	return svc, nil
}

// tick runs one iteration (or skips it while paused) and reschedules itself.
func (p *Poller) tick() {
	if p.svc.fault.paused {
		p.done()
		return
	}
	p.cfg.Body(p.ctx, p.done)
}
