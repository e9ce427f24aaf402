package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
)

// pauseTenant parks a tenant's consumer on a gate job and waits until the
// queue has drained into the parked consumer, so the queue's full capacity is
// available and every subsequent enqueue outcome is deterministic. Returns
// the release function.
func pauseTenant(t *testing.T, tn *tenant) func() {
	t.Helper()
	gate := make(chan struct{})
	select {
	case tn.queue <- job{gate: gate}:
	default:
		t.Fatal("queue full before the pause job")
	}
	for len(tn.queue) > 0 {
		runtime.Gosched()
	}
	return func() { close(gate) }
}

// TestBackpressureSheds pins the bounded-queue contract: with the consumer
// parked, exactly QueueCap batches are accepted, every further POST is shed
// with 429 + Retry-After and exact accounting, and an independent tenant on
// the same server keeps its full throughput. Releasing the consumer processes
// precisely the accepted batches — shed work is dropped, never deferred.
func TestBackpressureSheds(t *testing.T) {
	fx := buildFixture(t)
	srv, c, hs := newTestServer(t, t.TempDir())
	cfgA := tenantCfg(1, 0)
	cfgA.QueueCap = 4
	if code := c.create("slow", cfgA, fx.model); code != http.StatusCreated {
		t.Fatalf("create slow: status %d", code)
	}
	cfgB := tenantCfg(2, 0)
	if code := c.create("brisk", cfgB, fx.model); code != http.StatusCreated {
		t.Fatalf("create brisk: status %d", code)
	}
	wire := wireTicks(fx.ticks)

	srv.mu.RLock()
	slow := srv.tenants["slow"]
	srv.mu.RUnlock()
	release := pauseTenant(t, slow)

	// The first QueueCap batches queue up; everything after sheds.
	const floods = 10
	var accepted, shed int
	for i := 0; i < floods; i++ {
		blob := mustJSON(t, ingestRequest{Ticks: wire[i : i+1]})
		resp, err := hs.Client().Post(hs.URL+"/v1/tenants/slow/ingest", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without a Retry-After header")
			}
		default:
			t.Fatalf("flood %d: status %d", i, resp.StatusCode)
		}
	}
	if accepted != cfgA.QueueCap || shed != floods-cfgA.QueueCap {
		t.Fatalf("accepted %d shed %d, want %d/%d", accepted, shed, cfgA.QueueCap, floods-cfgA.QueueCap)
	}

	// The stalled tenant must not slow its neighbour: brisk runs its whole
	// timeline while slow is still parked.
	for i := range wire {
		if code := c.ingest("brisk", wire[i:i+1]); code != http.StatusAccepted {
			t.Fatalf("brisk ingest %d: status %d", i, code)
		}
	}
	if err := srv.Quiesce(context.Background(), "brisk"); err != nil {
		t.Fatal(err)
	}
	want := fx.wantTimeline(t, cfgB)
	got := c.verdicts("brisk", 0)
	if len(got.Verdicts) != len(want) {
		t.Fatalf("brisk served %d verdicts behind a stalled neighbour, want %d", len(got.Verdicts), len(want))
	}

	var st TenantStats
	if code := c.do(http.MethodGet, "/v1/tenants/slow/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Shed != uint64(shed) || st.QueueLen != cfgA.QueueCap || st.Processed != 0 {
		t.Fatalf("parked stats shed=%d queue=%d processed=%d, want %d/%d/0", st.Shed, st.QueueLen, st.Processed, shed, cfgA.QueueCap)
	}

	release()
	if err := srv.Quiesce(context.Background(), "slow"); err != nil {
		t.Fatal(err)
	}
	if code := c.do(http.MethodGet, "/v1/tenants/slow/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Processed != uint64(cfgA.QueueCap) || st.Shed != uint64(shed) {
		t.Fatalf("released stats processed=%d shed=%d, want %d/%d", st.Processed, st.Shed, cfgA.QueueCap, shed)
	}
}

// TestConcurrentServing drives several tenants from concurrent producers
// while stats and verdict readers hammer the same server; run under -race
// (make test-serve) this is the data-race conformance check. Each tenant's
// timeline must still match the bare pipeline exactly.
func TestConcurrentServing(t *testing.T) {
	fx := buildFixture(t)
	srv, c, _ := newTestServer(t, t.TempDir())
	wire := wireTicks(fx.ticks)
	cfg := tenantCfg(4, 0.1)

	const tenants = 4
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		if code := c.create(names[i], cfg, fx.model); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", names[i], code)
		}
	}

	// The readers and writers run off the test goroutine, so they report
	// errors here instead of failing the test themselves; each sends at
	// most one.
	errs := make(chan error, 3+tenants)
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func(n int) {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				name := names[n%tenants]
				var st TenantStats
				var vs verdictsResponse
				for _, read := range []struct {
					path string
					out  any
				}{
					{"/v1/tenants/" + name + "/stats", &st},
					{"/v1/tenants/" + name + "/verdicts?since=0", &vs},
				} {
					if code, err := c.request(http.MethodGet, read.path, nil, read.out); err != nil || code != http.StatusOK {
						errs <- fmt.Errorf("GET %s: status %d, %v", read.path, code, err)
						return
					}
				}
				srv.Stats()
				n++
			}
		}(i)
	}

	var writers sync.WaitGroup
	for _, name := range names {
		writers.Add(1)
		go func(name string) {
			defer writers.Done()
			for i := range wire {
				// Producers retry on backpressure: the default queue is
				// deep enough that this converges quickly.
				for {
					code, err := c.request(http.MethodPost, "/v1/tenants/"+name+"/ingest", ingestRequest{Ticks: wire[i : i+1]}, nil)
					if err == nil && code == http.StatusTooManyRequests {
						runtime.Gosched()
						continue
					}
					if err != nil || code != http.StatusAccepted {
						errs <- fmt.Errorf("%s ingest %d: status %d, %v", name, i, code, err)
						return
					}
					break
				}
			}
		}(name)
	}
	writers.Wait()
	close(stopReaders)
	readers.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	want := mustJSON(t, fx.wantTimeline(t, cfg))
	for _, name := range names {
		if err := srv.Quiesce(context.Background(), name); err != nil {
			t.Fatal(err)
		}
		resp := c.verdicts(name, 0)
		var stitched []*verdictJSON
		for _, sv := range resp.Verdicts {
			stitched = append(stitched, &verdictJSON{sv.Seq, mustJSON(t, sv.Verdict)})
		}
		if got := stitchTimeline(t, stitched); !bytes.Equal(got, want) {
			t.Fatalf("tenant %s timeline diverged under concurrency", name)
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
