package stream_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"causalfl/internal/core"
	"causalfl/internal/metrics"
	"causalfl/internal/stream"
)

// The non-finite rule: a NaN or ±Inf production value ages through its
// window but is never tested, by the stream detector and by core.Detect
// alike, in strict mode as in tolerant mode. These tests drive both paths
// over windows holding such values and require one answer per input.

const (
	probeWindow  = 8
	probeBaseLen = 12
)

var (
	probeMetrics  = []string{"m1", "m2"}
	probeServices = []string{"a", "b", "c"}
)

// Push kinds of the fuzz script; every other kind byte pushes a finite
// value.
const (
	kindNaN byte = iota
	kindPosInf
	kindNegInf
	kindFinite
)

// probeBaseline is a finite baseline of probeBaseLen values around 1 for
// every (metric, service) pair.
func probeBaseline(rng *rand.Rand) *metrics.Snapshot {
	base := metrics.NewSnapshot(probeMetrics, probeServices)
	for _, m := range probeMetrics {
		for _, svc := range probeServices {
			s := make([]float64, probeBaseLen)
			for i := range s {
				s[i] = 1 + 0.05*rng.NormFloat64()
			}
			base.Data[m][svc] = s
		}
	}
	return base
}

// probeValue draws one production value of the given kind; a finite value
// of service "a" is scaled by scale, every other pair stays on baseline.
func probeValue(rng *rand.Rand, svc string, scale float64, kind byte) float64 {
	switch kind % 16 {
	case kindNaN:
		return math.NaN()
	case kindPosInf:
		return math.Inf(1)
	case kindNegInf:
		return math.Inf(-1)
	}
	v := 1 + 0.05*rng.NormFloat64()
	if svc == "a" {
		v *= scale
	}
	return v
}

// probeScript fills every pair's window: "a" under m1 with seven finite
// values and one of the given kind, everything else with finite values.
// Each push is two bytes, the pair and the value kind.
func probeScript(kind byte) []byte {
	var script []byte
	for p := range len(probeMetrics) * len(probeServices) {
		for i := range probeWindow {
			k := kindFinite
			if p == 0 && i == 3 {
				k = kind
			}
			script = append(script, byte(p), k)
		}
	}
	return script
}

// probeModes are the decision settings every input runs under.
var probeModes = []struct {
	name string
	cfg  core.DetectConfig
}{
	{"alpha-strict", core.DetectConfig{Alpha: 0.05}},
	{"fdr-strict", core.DetectConfig{FDR: 0.10}},
	{"alpha-tolerant", core.DetectConfig{Alpha: 0.05, Tolerant: true}},
	{"fdr-tolerant", core.DetectConfig{FDR: 0.10, Tolerant: true}},
}

// runProbe pushes script into a detector configured as cfg and, after every
// push, requires the stream's Detect and core.Detect on the materialized
// windows to both succeed with DeepEqual results or both fail. It returns
// the stream's final detections per metric (nil where they failed).
func runProbe(t *testing.T, seed int64, scale float64, script []byte, cfg core.DetectConfig) map[string]*core.Detection {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := probeBaseline(rng)
	det, err := stream.NewDetector(base, detectOpts(probeWindow, 1, cfg)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	npairs := len(probeMetrics) * len(probeServices)
	final := make(map[string]*core.Detection, len(probeMetrics))
	for i := 0; i+1 < len(script); i += 2 {
		p := int(script[i]) % npairs
		m, svc := probeMetrics[p/len(probeServices)], probeServices[p%len(probeServices)]
		v := probeValue(rng, svc, scale, script[i+1])
		if err := det.Observe(m, svc, v); err != nil {
			t.Fatalf("observe %s/%s %v: %v", m, svc, v, err)
		}
		mat := det.Materialize()
		for _, m := range probeMetrics {
			got, err := det.Detect(ctx, m)
			want, errB := core.Detect(ctx, cfg, base, mat, m)
			if (err != nil) != (errB != nil) {
				t.Fatalf("push %d %s: stream err %v, batch err %v (windows %v)", i/2, m, err, errB, mat.Data[m])
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("push %d %s: stream %+v, batch %+v (windows %v)", i/2, m, got, want, mat.Data[m])
			}
			final[m] = got
		}
	}
	return final
}

// TestDetectorMatchesBatchNonFiniteProbe runs the probe windows — seven
// values of service a plus one NaN or ±Inf, shifted far (×50), not at all,
// or by 10% (inside the practical-equivalence guard's tolerance) — through
// both paths in every mode. A strict batch run that tested the NaN would
// fail, and one that tested the ±Inf as a value would flag the 10% window.
func TestDetectorMatchesBatchNonFiniteProbe(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
		kind  byte
		want  []string // A(m1) on both paths
	}{
		{"nan-shifted", 50, kindNaN, []string{"a"}},
		{"nan-unshifted", 1, kindNaN, []string{}},
		{"posinf-shifted", 50, kindPosInf, []string{"a"}},
		{"neginf-shifted", 50, kindNegInf, []string{"a"}},
		{"posinf-10pct", 1.1, kindPosInf, []string{}},
		{"neginf-10pct", 1.1, kindNegInf, []string{}},
	}
	for _, tc := range cases {
		for _, mode := range probeModes {
			got := runProbe(t, 1, tc.scale, probeScript(tc.kind), mode.cfg)
			if d := got["m1"]; d == nil || !reflect.DeepEqual(d.Anomalous, tc.want) {
				t.Fatalf("%s %s: A(m1) = %+v, want %v", tc.name, mode.name, d, tc.want)
			}
		}
	}
}

// FuzzDetectorMatchesBatch drives both paths with a finite random baseline
// and a random push script including NaN and ±Inf values, in strict and
// tolerant mode, with alpha and with FDR: after every push they must agree.
func FuzzDetectorMatchesBatch(f *testing.F) {
	f.Add(int64(1), 50.0, probeScript(kindNaN))
	f.Add(int64(1), 50.0, probeScript(kindPosInf))
	f.Add(int64(1), 1.1, probeScript(kindNegInf))
	f.Add(int64(7), 3.0, []byte{0, kindNaN, 0, kindNaN, 1, 9, 2, kindPosInf})
	f.Fuzz(func(t *testing.T, seed int64, scale float64, script []byte) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 1e9 {
			t.Skip("scale outside the probe's range")
		}
		if len(script) > 256 {
			script = script[:256]
		}
		for _, mode := range probeModes {
			runProbe(t, seed, scale, script, mode.cfg)
		}
	})
}
