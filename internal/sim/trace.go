package sim

// Distributed-tracing support. The paper's introduction motivates
// interventional causal learning by the limits of tracing: it requires
// instrumentation the application may not have, and it cannot see omission
// faults (a worker that silently stops calling a downstream). The simulator
// therefore emits Dapper-style spans for every call so that a trace-based
// root-cause baseline can be built and those limits demonstrated.

// Span is one client-observed call: From issued a request to To/Endpoint at
// Start and saw the response (or refusal) at End.
type Span struct {
	// TraceID groups the spans of one causally-linked request tree.
	TraceID uint64
	// SpanID identifies this span within the cluster (globally unique).
	SpanID uint64
	// ParentID is the SpanID of the calling span, 0 for a root span.
	ParentID uint64
	// From and To are the caller and callee service names; From may be an
	// external client unknown to the cluster.
	From string
	// To is the callee.
	To string
	// Endpoint is the called endpoint (or the KV operation).
	Endpoint string
	// Start is when the request was issued, End when the response reached
	// the caller.
	Start Time
	End   Time
	// Err reports a failed call.
	Err bool
}

// SpanObserver receives every completed span. Observers must not retain the
// cluster's internal state; the Span value is self-contained.
type SpanObserver func(Span)

// traceCtx is the trace context propagated along synchronous call trees.
type traceCtx struct {
	traceID uint64
	spanID  uint64
}

// WithSpanObserver installs a span observer at cluster construction.
func WithSpanObserver(fn SpanObserver) ClusterOption {
	return func(c *Cluster) { c.spanObserver = fn }
}

// SetSpanObserver installs (or replaces) the span observer on a built
// cluster. Passing nil disables tracing.
func (c *Cluster) SetSpanObserver(fn SpanObserver) { c.spanObserver = fn }

// newTraceCtx mints a root trace context.
func (c *Cluster) newTraceCtx() traceCtx {
	c.lastTraceID++
	return traceCtx{traceID: c.lastTraceID}
}

// childCtx derives the context for a downstream call from the handler's
// context. A zero parent (untraced entry or a service that drops context)
// starts a fresh trace, modelling broken instrumentation.
func (c *Cluster) childCtx(parent traceCtx) traceCtx {
	if parent.traceID == 0 {
		return c.newTraceCtx()
	}
	return parent
}

// finishSpan completes req's span and hands it to the observer. A KV
// operation's endpoint is spelled out here, so untraced runs never build it.
func (c *Cluster) finishSpan(req *request, failed bool) {
	if c.spanObserver == nil {
		return
	}
	endpoint := req.endpoint
	if req.isKV {
		endpoint = req.kv.Kind.String() + " " + req.kv.Key
	}
	c.spanObserver(Span{
		TraceID:  req.trace.traceID,
		SpanID:   req.trace.spanID,
		ParentID: req.spanParent,
		From:     req.from,
		To:       req.to,
		Endpoint: endpoint,
		Start:    req.spanStart,
		End:      c.eng.Now(),
		Err:      failed,
	})
}
