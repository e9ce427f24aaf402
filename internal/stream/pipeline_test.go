package stream_test

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"weak"

	"causalfl/internal/sim"
	"causalfl/internal/telemetry"
)

// TestPipelineRefusesMisalignedWindows: a service whose window grid starts
// a hop later than the others' leaves their first window incomplete for
// good; when a later window completes, the pipeline reports the drift
// instead of growing its backlog.
func TestPipelineRefusesMisalignedWindows(t *testing.T) {
	fx, err := buildSnapFixture()
	if err != nil {
		t.Fatal(err)
	}
	p, err := fx.newPipeline()
	if err != nil {
		t.Fatal(err)
	}
	for i, tick := range fx.ticks {
		if i < 3 {
			late := make(map[string][]telemetry.Sample, len(tick))
			for svc, ss := range tick {
				if svc != "svc-b" {
					late[svc] = ss
				}
			}
			tick = late
		}
		if _, err := p.Tick(context.Background(), tick); err != nil {
			want := "stream: service windows misaligned: window at 3m20s still incomplete while 3m35s is ready"
			if err.Error() != want {
				t.Fatalf("tick %d: %v, want %q", i, err, want)
			}
			return
		}
	}
	t.Fatal("a service starting a hop late never raised a misalignment error")
}

// TestPipelineSkipsPairsTheBaselineLacks: a (metric, service) pair the
// model's baseline has no series for is never observed, as the tolerant
// detector skips it, so the exported state holds no window for it and
// restores.
func TestPipelineSkipsPairsTheBaselineLacks(t *testing.T) {
	fx, err := buildSnapFixture()
	if err != nil {
		t.Fatal(err)
	}
	delete(fx.model.Baseline.Data["cpu"], "svc-c")
	if err := fx.model.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := fx.newPipeline()
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, p, fx.ticks)
	st := p.ExportState()
	if _, ok := st.Pairs["cpu"]["svc-c"]; ok {
		t.Fatal("the pipeline observed a pair the baseline lacks")
	}
	if _, ok := st.Pairs["msg_rate"]["svc-c"]; !ok {
		t.Fatal("the pipeline skipped a pair the baseline has")
	}
	fresh, err := fx.newPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinePendingStaysInStartOrder: a service whose grid starts one
// sample earlier than the others' and whose samples arrive late opens its
// window starts after theirs; the pending windows are still kept, and
// exported, in start order.
func TestPipelinePendingStaysInStartOrder(t *testing.T) {
	fx, err := buildSnapFixture()
	if err != nil {
		t.Fatal(err)
	}
	p, err := fx.newPipeline()
	if err != nil {
		t.Fatal(err)
	}
	held := []telemetry.Sample{{At: sim.Time(40 * snapInterval), Span: 1}}
	for i, tick := range fx.ticks[:8] {
		next := make(map[string][]telemetry.Sample, len(tick))
		for svc, ss := range tick {
			if svc == "svc-b" {
				held = append(held, ss...)
				continue
			}
			next[svc] = ss
		}
		if i == 7 {
			next["svc-b"] = held
		}
		if _, err := p.Tick(context.Background(), next); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	st := p.ExportState()
	if len(st.Pending) < 3 {
		t.Fatalf("%d pending window starts; the grids should not align", len(st.Pending))
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineTickKeepsNoSamples: once Tick returns, the pipeline holds no
// reference to the caller's samples, so a drained batch can be collected
// before the next Tick.
func TestPipelineTickKeepsNoSamples(t *testing.T) {
	fx, err := buildSnapFixture()
	if err != nil {
		t.Fatal(err)
	}
	p, err := fx.newPipeline()
	if err != nil {
		t.Fatal(err)
	}
	var refs []weak.Pointer[telemetry.Sample]
	func() {
		tick := make(map[string][]telemetry.Sample, len(fx.ticks[0]))
		for svc, ss := range fx.ticks[0] {
			own := slices.Clone(ss)
			if len(own) > 0 {
				refs = append(refs, weak.Make(&own[0]))
			}
			tick[svc] = own
		}
		if _, err := p.Tick(context.Background(), tick); err != nil {
			t.Fatal(err)
		}
	}()
	if len(refs) == 0 {
		t.Fatal("the fixture's first tick holds no samples")
	}
	runtime.GC()
	for _, ref := range refs {
		if ref.Value() != nil {
			t.Fatal("the pipeline still references a returned tick's samples")
		}
	}
	runtime.KeepAlive(p)
}
