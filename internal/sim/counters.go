package sim

// Counters holds the cumulative black-box telemetry of one service. These are
// the "raw metrics" of the paper's observability model (§V-A): CPU seconds
// (container_cpu_user_seconds_total), network packets received/transmitted
// (container_network_{receive,transmit}_packets_total) and console log
// messages (the source of the `msg rate` metric). The remaining fields exist
// for diagnostics and extensions.
//
// Counters are cumulative; the telemetry sampler differences successive
// snapshots to obtain per-interval rates.
type Counters struct {
	// RequestsReceived counts requests admitted by this service.
	RequestsReceived uint64
	// RequestsSent counts downstream requests issued by this service.
	RequestsSent uint64
	// ResponsesOK counts successful responses returned by this service.
	ResponsesOK uint64
	// ResponsesErr counts error responses returned by this service.
	ResponsesErr uint64
	// ErrorsObserved counts failed downstream calls seen by this service.
	ErrorsObserved uint64
	// LogMessages counts every console log line (info and error).
	LogMessages uint64
	// ErrorLogMessages counts only error-level log lines.
	ErrorLogMessages uint64
	// CPUSeconds accumulates compute time consumed by request handling.
	CPUSeconds float64
	// BusySeconds accumulates worker-slot occupancy: the time handlers
	// spent executing *or blocked on downstream calls*. It is the
	// thread-pool-utilization analogue that makes latency faults visible
	// (they consume no extra CPU but hold slots longer, upstream included).
	BusySeconds float64
	// RxPackets counts network packets received (requests in, responses in).
	RxPackets uint64
	// TxPackets counts network packets transmitted (requests out, responses out).
	TxPackets uint64
	// QueueDrops counts requests rejected because the queue limit was hit.
	QueueDrops uint64
}

// Sub returns the element-wise difference c - prev. It is used by samplers to
// turn cumulative counters into per-interval deltas.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		RequestsReceived: c.RequestsReceived - prev.RequestsReceived,
		RequestsSent:     c.RequestsSent - prev.RequestsSent,
		ResponsesOK:      c.ResponsesOK - prev.ResponsesOK,
		ResponsesErr:     c.ResponsesErr - prev.ResponsesErr,
		ErrorsObserved:   c.ErrorsObserved - prev.ErrorsObserved,
		LogMessages:      c.LogMessages - prev.LogMessages,
		ErrorLogMessages: c.ErrorLogMessages - prev.ErrorLogMessages,
		CPUSeconds:       c.CPUSeconds - prev.CPUSeconds,
		BusySeconds:      c.BusySeconds - prev.BusySeconds,
		RxPackets:        c.RxPackets - prev.RxPackets,
		TxPackets:        c.TxPackets - prev.TxPackets,
		QueueDrops:       c.QueueDrops - prev.QueueDrops,
	}
}

// AddTo adds other into c field by field, each as c.Field + other.Field,
// so a sum accumulated in place is bit-identical to one built by value. It
// is used when aggregating per-interval deltas into hopping windows; taking
// both operands by pointer copies neither.
func (c *Counters) AddTo(other *Counters) {
	c.RequestsReceived += other.RequestsReceived
	c.RequestsSent += other.RequestsSent
	c.ResponsesOK += other.ResponsesOK
	c.ResponsesErr += other.ResponsesErr
	c.ErrorsObserved += other.ErrorsObserved
	c.LogMessages += other.LogMessages
	c.ErrorLogMessages += other.ErrorLogMessages
	c.CPUSeconds += other.CPUSeconds
	c.BusySeconds += other.BusySeconds
	c.RxPackets += other.RxPackets
	c.TxPackets += other.TxPackets
	c.QueueDrops += other.QueueDrops
}
