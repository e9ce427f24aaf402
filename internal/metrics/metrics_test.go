package metrics

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"causalfl/internal/sim"
	"causalfl/internal/telemetry"
)

func TestRawMetricExtraction(t *testing.T) {
	c := sim.Counters{
		LogMessages:      7,
		ErrorLogMessages: 3,
		CPUSeconds:       1.5,
		RxPackets:        100,
		TxPackets:        80,
		RequestsReceived: 50,
	}
	tests := []struct {
		metric Metric
		want   float64
	}{
		{MsgRate, 7},
		{ErrLogRate, 3},
		{CPU, 1.5},
		{RxPackets, 100},
		{TxPackets, 80},
		{ReqRate, 50},
	}
	for _, tt := range tests {
		if got := tt.metric.Extract(c); got != tt.want {
			t.Errorf("%s = %v, want %v", tt.metric.Name, got, tt.want)
		}
		if tt.metric.Derived {
			t.Errorf("%s marked derived", tt.metric.Name)
		}
	}
}

func TestDeriveRatioAndZeroDenominator(t *testing.T) {
	m := Derive(CPU, RxPackets)
	if m.Name != "cpu_per_rx_packets" {
		t.Errorf("derived name = %q", m.Name)
	}
	if !m.Derived {
		t.Error("derived metric not marked Derived")
	}
	if got := m.Extract(sim.Counters{CPUSeconds: 2, RxPackets: 4}); got != 0.5 {
		t.Errorf("cpu/rx = %v, want 0.5", got)
	}
	if got := m.Extract(sim.Counters{CPUSeconds: 2, RxPackets: 0}); got != 0 {
		t.Errorf("cpu/0 = %v, want 0 (idle service has zero intensity)", got)
	}
}

func TestDerivedMetricIsLoadInvariant(t *testing.T) {
	// The whole point of derived metrics: scaling the load leaves the
	// ratio unchanged.
	m := Derive(MsgRate, RxPackets)
	base := sim.Counters{LogMessages: 10, RxPackets: 100}
	loaded := sim.Counters{LogMessages: 40, RxPackets: 400}
	if m.Extract(base) != m.Extract(loaded) {
		t.Fatalf("derived metric changed under 4x load: %v vs %v",
			m.Extract(base), m.Extract(loaded))
	}
	// while the raw metric shifts:
	if MsgRate.Extract(base) == MsgRate.Extract(loaded) {
		t.Fatal("raw metric unexpectedly load invariant")
	}
}

func TestBusyMetricAndExtendedPreset(t *testing.T) {
	c := sim.Counters{BusySeconds: 2.5, RxPackets: 10}
	if got := Busy.Extract(c); got != 2.5 {
		t.Errorf("busy = %v", got)
	}
	ext, err := Preset(SetDerivedExt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 4 {
		t.Fatalf("derived-ext has %d metrics, want 4", len(ext))
	}
	found := false
	for _, m := range ext {
		if m.Name == "busy_per_rx_packets" {
			found = true
			if got := m.Extract(c); got != 0.25 {
				t.Errorf("busy/rx = %v, want 0.25", got)
			}
		}
		if !m.Derived {
			t.Errorf("derived-ext contains raw metric %s", m.Name)
		}
	}
	if !found {
		t.Error("derived-ext lacks busy_per_rx_packets")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		set, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if len(set) == 0 {
			t.Fatalf("Preset(%q) empty", name)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	all, err := Preset(SetDerivedAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("derived-all has %d metrics, want 3", len(all))
	}
	for _, m := range all {
		if !m.Derived {
			t.Errorf("derived-all contains raw metric %s", m.Name)
		}
	}
	errSet, err := Preset(SetErrLog)
	if err != nil {
		t.Fatal(err)
	}
	if len(errSet) != 1 || errSet[0].Name != "error_log_rate" {
		t.Fatalf("errlog preset = %v", Names(errSet))
	}
}

func windowsFixture() map[string][]telemetry.Window {
	mk := func(reqs ...uint64) []telemetry.Window {
		out := make([]telemetry.Window, len(reqs))
		for i, r := range reqs {
			out[i] = telemetry.Window{
				Start: time.Duration(i) * time.Second,
				End:   time.Duration(i+1) * time.Second,
				Sum: sim.Counters{
					RxPackets:   r,
					LogMessages: r / 2,
					CPUSeconds:  float64(r) / 100,
				},
			}
		}
		return out
	}
	return map[string][]telemetry.Window{
		"a": mk(10, 20, 30),
		"b": mk(4, 4, 4),
	}
}

func TestBuildSnapshot(t *testing.T) {
	snap, err := BuildSnapshot(windowsFixture(), []string{"a", "b"}, RawAll())
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	series, err := snap.Series("rx_packets", "a")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30}
	for i := range want {
		if series[i] != want[i] {
			t.Fatalf("rx series = %v, want %v", series, want)
		}
	}
	if snap.WindowCount() != 3 {
		t.Fatalf("WindowCount = %d, want 3", snap.WindowCount())
	}
}

func TestBuildSnapshotMissingServiceGetsEmptySeries(t *testing.T) {
	snap, err := BuildSnapshot(windowsFixture(), []string{"a", "b", "ghost"}, []Metric{MsgRate})
	if err != nil {
		t.Fatal(err)
	}
	series, err := snap.Series("msg_rate", "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 0 {
		t.Fatalf("ghost series has %d values, want 0", len(series))
	}
	// Validate must flag the length mismatch.
	if err := snap.Validate(); err == nil {
		t.Fatal("Validate accepted unequal series lengths")
	}
}

func TestBuildSnapshotValidation(t *testing.T) {
	if _, err := BuildSnapshot(windowsFixture(), []string{"a"}, nil); err == nil {
		t.Fatal("accepted empty metric set")
	}
	if _, err := BuildSnapshot(windowsFixture(), nil, RawAll()); err == nil {
		t.Fatal("accepted empty service list")
	}
}

func TestSnapshotSeriesErrors(t *testing.T) {
	snap := NewSnapshot([]string{"m"}, []string{"s"})
	if _, err := snap.Series("nope", "s"); err == nil {
		t.Fatal("Series accepted unknown metric")
	}
	if _, err := snap.Series("m", "nope"); err == nil {
		t.Fatal("Series accepted unknown service")
	}
}

func TestSnapshotCloneIsDeep(t *testing.T) {
	snap, err := BuildSnapshot(windowsFixture(), []string{"a", "b"}, []Metric{MsgRate})
	if err != nil {
		t.Fatal(err)
	}
	clone := snap.Clone()
	orig, _ := snap.Series("msg_rate", "a")
	cloned, _ := clone.Series("msg_rate", "a")
	cloned[0] = -999
	if orig[0] == -999 {
		t.Fatal("Clone shares underlying series")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap, err := BuildSnapshot(windowsFixture(), []string{"a", "b"}, RawAll())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	a1, _ := snap.Series("cpu", "b")
	a2, _ := back.Series("cpu", "b")
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("JSON round trip altered data")
		}
	}
}

func TestSnapshotValidateCatchesMissingMetric(t *testing.T) {
	snap := NewSnapshot([]string{"m1"}, []string{"s1"})
	delete(snap.Data, "m1")
	if err := snap.Validate(); err == nil {
		t.Fatal("Validate accepted missing metric data")
	}
}

func TestNamesAndSortedMetricNames(t *testing.T) {
	set := []Metric{TxPackets, CPU}
	n := Names(set)
	if n[0] != "tx_packets" || n[1] != "cpu" {
		t.Fatalf("Names = %v", n)
	}
	snap := NewSnapshot([]string{"z", "a"}, []string{"s"})
	sorted := snap.SortedMetricNames()
	if sorted[0] != "a" || sorted[1] != "z" {
		t.Fatalf("SortedMetricNames = %v", sorted)
	}
	if snap.Metrics[0] != "z" {
		t.Fatal("SortedMetricNames mutated the snapshot ordering")
	}
}

// TestValidateTolerantIsDeterministic: a snapshot with several faults is
// always refused for the same one — a non-finite value on the first declared
// pair in order, else the first undeclared key in sorted order — and a
// repeated declared name neither hides an undeclared key nor invents one.
func TestValidateTolerantIsDeterministic(t *testing.T) {
	undeclared := func() *Snapshot {
		s := NewSnapshot([]string{"m", "n"}, []string{"a", "b", "b"})
		for _, m := range []string{"m", "n"} {
			s.Data[m]["a"] = []float64{1}
			s.Data[m]["b"] = []float64{2}
		}
		for _, svc := range []string{"z", "y", "x", "w"} {
			s.Data["n"][svc] = []float64{3}
		}
		s.Data["zz"] = map[string][]float64{}
		return s
	}
	nonFinite := undeclared()
	nonFinite.Data["n"]["b"][0] = math.Inf(1)
	nonFinite.Data["m"]["b"] = []float64{math.NaN()}
	clean := undeclared()
	delete(clean.Data, "zz")
	for svc := range clean.Data["n"] {
		if svc != "a" && svc != "b" {
			delete(clean.Data["n"], svc)
		}
	}
	for _, tc := range []struct {
		name string
		snap *Snapshot
		want string
	}{
		{"undeclared", undeclared(), `metrics: metric "n" stores undeclared service "w"`},
		{"non-finite", nonFinite, `metrics: metric "m" service "b" has non-finite value NaN at window 0`},
		{"repeated declaration", clean, ""},
	} {
		for i := 0; i < 20; i++ {
			got := ""
			if err := tc.snap.ValidateTolerant(); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("%s, run %d: error %q, want %q", tc.name, i, got, tc.want)
			}
		}
	}
}
