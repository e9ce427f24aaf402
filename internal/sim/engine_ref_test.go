package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// refEngine is the engine as it was before events became values: a
// container/heap of *event closures. It differs from that engine only in the
// clock rule of a stopped Run, which the Engine fixes. It is the oracle that
// the value-typed heap must match event for event.
type refEngine struct {
	heap    refHeap
	now     Time
	seq     uint64
	stopped bool
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) Schedule(at Time, fn func()) {
	if fn == nil {
		return
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.heap, &refEvent{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) Run(until Time) int {
	e.stopped = false
	executed := 0
	for len(e.heap) > 0 && !e.stopped {
		next := e.heap[0]
		if next.at > until {
			break
		}
		heap.Pop(&e.heap)
		e.now = next.at
		next.fn()
		executed++
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
	return executed
}

func (e *refEngine) Pending() int { return len(e.heap) }

// scheduler is the engine surface the property drives.
type scheduler interface {
	Now() Time
	Schedule(at Time, fn func())
	After(d Duration, fn func())
	Stop()
	Run(until Time) int
	Pending() int
}

// driveRandomSchedule plays one random schedule drawn from seed on s and
// logs every executed event with its Now() reading, and every Run's count,
// clock and backlog. Event times are whole seconds, so ties are common; many
// lie in the past when scheduled (clamped to now); events schedule children
// from inside and some call Stop, and further Runs resume the queue.
func driveRandomSchedule(s scheduler, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	var log []int64
	id := int64(0)
	var spawn func(depth int)
	spawn = func(depth int) {
		id++
		me := id
		at := Time(r.Intn(40)) * time.Second
		stop := r.Intn(12) == 0
		children := 0
		if depth < 4 {
			children = r.Intn(3)
		}
		fn := func() {
			log = append(log, me, int64(s.Now()))
			for k := 0; k < children; k++ {
				spawn(depth + 1)
			}
			if stop {
				s.Stop()
			}
		}
		switch r.Intn(3) {
		case 0:
			s.Schedule(at, fn)
		case 1:
			s.After(at/4-2*time.Second, fn)
		default:
			s.Schedule(s.Now()+at/8, fn)
		}
	}
	for k := r.Intn(40); k >= 0; k-- {
		spawn(0)
	}
	for _, until := range []Time{3 * time.Second, 10 * time.Second, 10 * time.Second, 25 * time.Second, time.Minute, time.Minute, 2 * time.Minute} {
		n := s.Run(until)
		log = append(log, -1, int64(n), int64(s.Now()), int64(s.Pending()))
		if r.Intn(2) == 0 {
			spawn(1)
		}
	}
	return log
}

// Property: on any random schedule the value-typed engine runs the same
// events in the same order, at the same Now() readings, as the
// container/heap reference.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	prop := func(seed int64) bool {
		got := driveRandomSchedule(NewEngine(1), seed)
		want := driveRandomSchedule(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Logf("seed %d: log lengths %d vs %d", seed, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d: logs diverge at %d: %d vs %d", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A stopped Run leaves the clock at the last executed event, so the events
// Stop left pending run later without the clock going back in time.
func TestEngineStoppedRunKeepsClock(t *testing.T) {
	eng := NewEngine(1)
	var seen []Time
	for i := 1; i <= 5; i++ {
		eng.Schedule(Time(i)*time.Second, func() {
			seen = append(seen, eng.Now())
			if len(seen) == 2 {
				eng.Stop()
			}
		})
	}
	eng.Run(time.Minute)
	if got := eng.Now(); got != 2*time.Second {
		t.Fatalf("Now after a stopped Run = %v, want 2s (the last executed event)", got)
	}
	last := eng.Now()
	eng.Run(2 * time.Minute)
	for _, at := range seen[2:] {
		if at < last {
			t.Fatalf("an event ran at %v after the clock had read %v", at, last)
		}
		last = at
	}
	if len(seen) != 5 || eng.Now() != 2*time.Minute {
		t.Fatalf("resumed Run: %d events ran, Now = %v; want 5 and 2m", len(seen), eng.Now())
	}
}
