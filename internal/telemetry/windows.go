package telemetry

import (
	"fmt"
	"time"

	"causalfl/internal/sim"
)

// Paper defaults: "metrics are smoothed by aggregating them using a hopping
// window to create overlapping sixty second windows which are created every
// thirty seconds" (§V-A).
const (
	DefaultWindowLength = 60 * time.Second
	DefaultWindowHop    = 30 * time.Second
)

// Window is one hopping-window aggregate: counter deltas summed over
// [Start, End).
type Window struct {
	Start sim.Time
	End   sim.Time
	Sum   sim.Counters
	// Expected is the number of sampling intervals the window spans;
	// Covered is how many of them contributed data. Covered < Expected
	// marks a window degraded by scrape loss. Zero Expected means the
	// window predates coverage accounting and is treated as fully covered.
	Expected int
	Covered  int
}

// Coverage returns the fraction of the window's sampling intervals backed by
// data, in [0,1]. Windows without coverage accounting report 1.
func (w Window) Coverage() float64 {
	if w.Expected <= 0 {
		return 1
	}
	c := float64(w.Covered) / float64(w.Expected)
	if c > 1 {
		return 1
	}
	return c
}

// HoppingWindows aggregates a service's samples into overlapping windows of
// the given length created every hop. Windows are aligned to the first
// sample's interval start and only fully covered windows are produced.
func HoppingWindows(samples []Sample, length, hop time.Duration) ([]Window, error) {
	if length <= 0 || hop <= 0 {
		return nil, fmt.Errorf("telemetry: window length and hop must be positive (length=%v hop=%v)", length, hop)
	}
	if hop > length {
		return nil, fmt.Errorf("telemetry: hop %v larger than window %v would drop samples", hop, length)
	}
	if len(samples) == 0 {
		return nil, nil
	}
	// A sample stamped At covers the interval ending at At; the series
	// origin is therefore the start of the first sample's interval. We
	// recover the interval from consecutive stamps (or assume the first
	// stamp equals one interval from origin, which holds for Sampler).
	interval := samples[0].At
	if len(samples) > 1 {
		interval = samples[1].At - samples[0].At
	}
	if interval <= 0 {
		return nil, fmt.Errorf("telemetry: non-increasing sample timestamps")
	}
	origin := samples[0].At - interval
	end := samples[len(samples)-1].At
	expected := int(length / interval)

	var windows []Window
	for start := origin; start+length <= end; start += hop {
		w := Window{Start: start, End: start + length, Expected: expected}
		for i := range samples {
			smp := &samples[i] // read in place: a Sample is about 130 bytes
			if smp.Missing {
				continue
			}
			span := smp.Span
			if span < 1 {
				span = 1
			}
			// Sample covers (At-span*interval, At]; include it when the
			// whole covered stretch lies inside the window. A recovery
			// sample whose span crosses the window boundary is excluded
			// from both windows — its mass cannot be split, so the
			// affected windows honestly report under-coverage instead.
			if smp.At-sim.Time(span)*sim.Time(interval) >= w.Start && smp.At <= w.End {
				w.Sum.AddTo(&smp.Deltas)
				w.Covered += span
			}
		}
		if w.Covered > w.Expected {
			w.Covered = w.Expected
		}
		windows = append(windows, w)
	}
	return windows, nil
}

// WindowsByService applies HoppingWindows to every service in samples.
func WindowsByService(samples map[string][]Sample, length, hop time.Duration) (map[string][]Window, error) {
	out := make(map[string][]Window, len(samples))
	for svc, s := range samples {
		w, err := HoppingWindows(s, length, hop)
		if err != nil {
			return nil, fmt.Errorf("telemetry: windows for %s: %w", svc, err)
		}
		out[svc] = w
	}
	return out, nil
}
