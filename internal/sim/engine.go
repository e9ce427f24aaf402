// Package sim implements a deterministic discrete-event simulator for
// microservice applications.
//
// The simulator is the substrate on which the fault-localization experiments
// run. It models a cluster of capacity-limited services exchanging synchronous
// requests (blocking call trees, as in HTTP microservices), stateful key-value
// stores, and background pollers. Every stochastic choice is driven by a
// seeded random source and all work is executed on a single-threaded event
// loop, so a run is a pure function of its configuration and seed.
//
// Virtual time is a time.Duration measured from the start of the simulation;
// no wall-clock time is consulted anywhere in the package.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is virtual simulation time, measured as an offset from the start of
// the run. The zero Time is the instant the simulation begins.
type Time = time.Duration

// Duration aliases time.Duration so that callers can use the time package's
// constants (time.Second, ...) directly for virtual-time arithmetic.
type Duration = time.Duration

// eventKind tags what an event does when it runs. Application callbacks
// (Schedule, After, Every) are one kind; the cluster's hot events are the
// others, each acting on one request record, so that simulating a hop
// allocates no closure.
type eventKind uint8

const (
	evFunc     eventKind = iota // run fn
	evArrive                    // req reaches its target service
	evBegin                     // req's injected start delay has elapsed
	evComputed                  // req's compute step (or KV operation) is done
	evDeliver                   // req's response or refusal reaches the caller
	evTimeout                   // the attempt tok of req's blocking call timed out
)

// event is one scheduled action, held by value in the engine's heap. The seq
// field breaks ties between events scheduled for the same instant so that
// execution order is deterministic and FIFO with respect to scheduling order.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	req  *request
	tok  uint64
	kind eventKind
}

// before reports whether a runs before b: the (at, seq) order, which is total
// because seq is unique.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event loop. It is not safe for
// concurrent use; all callbacks run on the goroutine that calls Run.
type Engine struct {
	// events is a binary min-heap in (at, seq) order.
	events  []event
	now     Time
	seq     uint64
	rng     *rand.Rand
	stopped bool
}

// NewEngine returns an engine whose random source is seeded with seed.
// Two engines built with the same seed and fed the same schedule of events
// produce identical runs.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. Callbacks must use
// this source (never package-level rand) so runs stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule arranges for fn to run at virtual time at. Events scheduled in the
// past are executed at the current time instead (they cannot rewind the
// clock). Events at equal times run in scheduling order. A nil fn schedules
// nothing: there is no work to run, so the call is a no-op rather than a
// panic in library code.
func (e *Engine) Schedule(at Time, fn func()) {
	if fn == nil {
		return
	}
	e.push(event{at: at, kind: evFunc, fn: fn})
}

// After schedules fn to run d after the current virtual time. Negative
// durations are treated as zero.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// afterReq schedules the cluster event kind on req, d from now.
func (e *Engine) afterReq(d Duration, kind eventKind, req *request, tok uint64) {
	e.push(event{at: e.now + d, kind: kind, req: req, tok: tok})
}

// push stamps ev with the next sequence number, clamps it to the present and
// sifts it up the heap.
func (e *Engine) push(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	e.seq++
	ev.seq = e.seq
	e.events = append(e.events, ev)
	h := e.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the references the vacated slot holds
	h = h[:n]
	e.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}

// Every schedules fn at a fixed cadence starting at start, until the engine
// run horizon is reached or Stop is called. The callback itself may consult
// Now to decide whether to keep working.
func (e *Engine) Every(start Time, interval Duration, fn func()) error {
	if interval <= 0 {
		return fmt.Errorf("sim: Every interval must be positive, got %v", interval)
	}
	var tick func()
	next := start
	tick = func() {
		fn()
		next += interval
		e.Schedule(next, tick)
	}
	e.Schedule(start, tick)
	return nil
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue drains, the next
// event lies strictly beyond until, or an event calls Stop. A run that was
// not stopped leaves the clock at until; a stopped run leaves it at the time
// of the last executed event, so the events Stop left pending still lie
// ahead of the clock for a later Run. It returns the number of events
// executed.
func (e *Engine) Run(until Time) int {
	e.stopped = false
	executed := 0
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > until {
			break
		}
		ev := e.pop()
		e.now = ev.at
		switch ev.kind {
		case evFunc:
			ev.fn()
		case evArrive:
			ev.req.target.handleArrival(ev.req)
		case evBegin:
			ev.req.target.begin(ev.req)
		case evComputed:
			ev.req.target.computed(ev.req)
		case evDeliver:
			ev.req.cluster.deliver(ev.req)
		case evTimeout:
			ev.req.timedOut(ev.tok)
		}
		executed++
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
	return executed
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.events) }
