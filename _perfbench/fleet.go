package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"time"

	"causalfl/internal/core"
	"causalfl/internal/sim"
	"causalfl/internal/stream"
)

// The stream-fleet workload: an in-process stream.Localizer over a synthetic
// 4096-service fleet in the sparse steady state. Per hop, fleetActive
// services report plus the faulty one; the hops are generated once and
// replayed in cycles, so memory stays bounded however long the run.
const (
	fleetServices = 4096
	fleetMetrics  = 8
	fleetBaseline = 384
	fleetWindow   = 8
	fleetWarmup   = 8   // full-density hops that fill the windows, in set-up
	fleetCycle    = 400 // steady-state hops replayed in cycles
	fleetActive   = 64
	// fleetTraceHops bounds the traced replay.
	fleetTraceHops = 4000
)

// probeEvery is how often, in measured time, the fleet runs the reference
// kernel.
const probeEvery = 250 * time.Millisecond

// fleetChecks are the timed hops after which the first instance of a run
// compares the verdict with the batch localizer on the materialized
// windows. A check takes about a second at this fleet size and is not part
// of the measured time.
var fleetChecks = []int{100, 2000}

// virtual time between hops: the paper's 30 s window hop.
const fleetHopEvery = sim.Time(30 * time.Second)

type fleet struct {
	w      *stream.SynthWorkload
	model  *core.Model
	faulty string
	loc    *stream.Localizer

	lat    []float64 // seconds per untraced Step, wall clock
	cpu    []float64 // seconds per untraced Step, the thread's CPU time
	probes []float64 // reference-kernel times taken during the run
	last   *stream.Verdict
	tally
}

// newFleet generates the workload for seed and builds a warmed-up
// localizer: everything before the first timed Step.
func newFleet(ctx context.Context, seed int64) (*fleet, error) {
	// The synthetic fault shifts a series by +5 on a mean of 10+3m+0.5(s%64):
	// only services with s%64 == 0 shift by more than the guarded KS test's
	// 20% practical-equivalence tolerance on some metrics. Any other choice
	// is never detected, and the vote would never run.
	faultIdx := 64 * rand.New(rand.NewSource(seed)).Intn(fleetServices/64)
	w, err := stream.NewSynth(stream.SynthConfig{
		Services: fleetServices, Metrics: fleetMetrics,
		BaselineLen:    fleetBaseline,
		Hops:           fleetWarmup + fleetCycle,
		Seed:           seed,
		FaultService:   faultIdx,
		FaultAfter:     fleetWarmup,
		ActiveServices: fleetActive,
		Warmup:         fleetWarmup,
	})
	if err != nil {
		return nil, err
	}
	f := &fleet{w: w, model: w.Model(), faulty: w.Services[faultIdx]}
	f.loc, err = f.warmLocalizer(ctx)
	return f, err
}

// warmLocalizer builds a localizer and feeds it the warm-up hops.
func (f *fleet) warmLocalizer(ctx context.Context) (*stream.Localizer, error) {
	loc, err := stream.NewLocalizer(f.model, stream.WithWindow(fleetWindow), stream.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	for h := 0; h < fleetWarmup; h++ {
		if _, err := loc.Step(ctx, sim.Time(h)*fleetHopEvery, f.w.Hops[h]); err != nil {
			return nil, err
		}
	}
	return loc, nil
}

// hop returns the i-th timed hop and its window-end stamp.
func (f *fleet) hop(i int) (sim.Time, map[string]map[string]float64) {
	return sim.Time(fleetWarmup+i) * fleetHopEvery, f.w.Hops[fleetWarmup+i%fleetCycle]
}

// run times Localizer.Step for d and, with check set, checks the verdict
// against the batch localizer at the fleetChecks hops. Every probeEvery it
// runs the reference kernel; checks and probes are not part of the measured
// time.
func (f *fleet) run(ctx context.Context, d time.Duration, check bool) error {
	batch, err := core.NewLocalizer(core.WithWorkers(1))
	if err != nil {
		return err
	}
	// Step runs on this goroutine alone (one worker), so the thread's CPU
	// clock times it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	start := time.Now()
	var paused time.Duration
	var probed time.Duration // measured time at the last probe
	for measured := time.Duration(0); measured < d; measured = time.Since(start) - paused {
		if measured-probed >= probeEvery || len(f.probes) == 0 {
			p0 := time.Now()
			f.probes = append(f.probes, refProbe())
			paused += time.Since(p0)
			probed = measured
		}
		i := len(f.lat)
		at, hop := f.hop(i)
		t0, c0 := time.Now(), cpuTime(clockThreadCPU)
		v, err := f.loc.Step(ctx, at, hop)
		f.cpu = append(f.cpu, (cpuTime(clockThreadCPU) - c0).Seconds())
		f.lat = append(f.lat, time.Since(t0).Seconds())
		f.attempted++
		if err != nil {
			f.failed++
			return fmt.Errorf("fleet: step %d: %w", i, err)
		}
		f.last = v
		if check && slices.Contains(fleetChecks, i) {
			f.attempted++
			c0 := time.Now()
			want, err := batch.Localize(ctx, f.model, f.loc.Detector().Materialize())
			runtime.GC() // the check's garbage is not the run's
			paused += time.Since(c0)
			if err != nil || !reflect.DeepEqual(v.Candidates, want.Candidates) {
				f.failed++
				f.wrong++
				fmt.Printf("fleet: hop %d: stream candidates %v, batch %v (err %v)\n", i, v.Candidates, want, err)
			}
		}
	}
	f.probes = append(f.probes, refProbe())
	return nil
}

// finish checks that the faulty service is confirmed after the run.
func (f *fleet) finish() {
	f.attempted++
	if f.last == nil || !slices.Contains(f.last.Confirmed, f.faulty) {
		f.failed++
		f.wrong++
		fmt.Printf("fleet: faulty service %s not confirmed\n", f.faulty)
	}
}

// heapMB is the live heap the fleet holds, workload and localizer
// included: the heap after a GC, less the heap after a GC once the fleet is
// dropped. The fleet is unusable afterwards.
func (f *fleet) heapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	with := float64(ms.HeapAlloc)
	*f = fleet{tally: f.tally}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return (with - float64(ms.HeapAlloc)) / 1e6
}

// e2e reports the median CPU time of a Step, normalised to the reference
// core. A median, because a Step that a GC cycle's marking slows is the
// exception.
func (f *fleet) e2e(m metricSet) {
	scale := refScale(f.probes)
	m.put("fleet_hop_cpu_ms", quantile(f.cpu, 0.50)*scale*1e3, "ms")
	fmt.Printf("stream-fleet: %d hops over %d services, faulty %s; Step p50 %.3f ms wall, %.3f ms CPU; reference kernel %.3f ms\n",
		len(f.lat), fleetServices, f.faulty, quantile(f.lat, 0.5)*1e3, quantile(f.cpu, 0.5)*1e3, median(f.probes)*1e3)
}

// trace replays the untraced run's hops on fresh instances and times the
// calls into each layer: Localizer.Step on one instance, and on a second,
// identically configured pipeline of parts, Detector.ObserveHop,
// Detector.DetectAll and core.Localizer.AggregateIndexed. The step's self
// time is Step minus the three parts.
func (f *fleet) trace(ctx context.Context, m metricSet) error {
	f.loc = nil // the replay builds its own; drop the untraced state first
	runtime.GC()
	loc, err := f.warmLocalizer(ctx)
	if err != nil {
		return err
	}
	det, err := stream.NewDetector(f.model.Baseline, stream.WithWindow(fleetWindow),
		stream.WithAlpha(f.model.Alpha), stream.WithTolerant(true), stream.WithWorkers(1))
	if err != nil {
		return err
	}
	for h := 0; h < fleetWarmup; h++ {
		if err := det.ObserveHop(f.w.Hops[h]); err != nil {
			return err
		}
		if _, err := det.DetectAll(ctx); err != nil {
			return err
		}
	}
	idx, err := core.NewCausalIndex(f.model)
	if err != nil {
		return err
	}
	voter, err := core.NewLocalizer()
	if err != nil {
		return err
	}

	n := min(len(f.lat), fleetTraceHops)
	var step, observe, detect, vote layer
	for i := 0; i < n; i++ {
		at, hop := f.hop(i)
		var v *stream.Verdict
		step.call(func() (err error) { v, err = loc.Step(ctx, at, hop); return })
		observe.call(func() error { return det.ObserveHop(hop) })
		var dets []*core.Detection
		detect.call(func() (err error) { dets, err = det.DetectAll(ctx); return })
		var got *core.Localization
		vote.call(func() (err error) { got, err = voter.AggregateIndexed(idx, dets); return })
		f.attempted++
		if v == nil || got == nil || !reflect.DeepEqual(v.Candidates, got.Candidates) {
			f.failed++
			f.wrong++
		}
	}
	self := step.minus(&observe, &detect, &vote)

	// Diagnostics: the tail, and with it the mean, moves with the machine's
	// load more than any bound a comparison could hold, so neither is an
	// end-to-end metric.
	m.put("fleet_hop_p99_ms", quantile(f.lat, 0.99)*1e3, "ms")
	m.put("fleet_hops_per_s", float64(len(f.lat))/sum(f.lat), "1/s")
	observe.report(m, "stream.detector.observe_us", "us", true, false)
	detect.report(m, "stream.detector.detect_us", "us", true, false)
	vote.report(m, "core.vote_us", "us", true, false)
	self.report(m, "stream.localizer.step_self_us", "us", true, false)

	untraced := sum(f.lat) / float64(len(f.lat))
	layers := observe.perCall() + detect.perCall() + vote.perCall() + self.perCall()
	coverage(m, "fleet", untraced, step.perCall(), layers)
	printCoverage("stream-fleet", "hop", untraced, step.perCall(), layers)
	return nil
}
