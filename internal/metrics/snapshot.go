package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Snapshot is one collected dataset: for every metric M and service s, the
// series of window values m(s, t). It corresponds to the paper's D_0 (fault
// free), D_s (fault injected in s) and D (production) datasets.
type Snapshot struct {
	// Metrics lists metric names in evaluation order.
	Metrics []string `json:"metrics"`
	// Services lists the service universe S.
	Services []string `json:"services"`
	// Data maps metric -> service -> window-value series.
	Data map[string]map[string][]float64 `json:"data"`
}

// NewSnapshot allocates an empty snapshot over the given universe.
func NewSnapshot(metricNames, services []string) *Snapshot {
	s := &Snapshot{
		Metrics:  append([]string(nil), metricNames...),
		Services: append([]string(nil), services...),
		Data:     make(map[string]map[string][]float64, len(metricNames)),
	}
	for _, m := range s.Metrics {
		s.Data[m] = make(map[string][]float64, len(services))
	}
	return s
}

// Series returns the window-value series of metric m for service svc.
func (s *Snapshot) Series(m, svc string) ([]float64, error) {
	bySvc, ok := s.Data[m]
	if !ok {
		return nil, fmt.Errorf("metrics: snapshot has no metric %q", m)
	}
	series, ok := bySvc[svc]
	if !ok {
		return nil, fmt.Errorf("metrics: snapshot metric %q has no service %q", m, svc)
	}
	return series, nil
}

// SeriesOK returns the window-value series of metric m for service svc, and
// whether that (metric, service) pair is present. It is the lookup to use on
// possibly-degraded snapshots where a missing pair is data, not an error.
func (s *Snapshot) SeriesOK(m, svc string) ([]float64, bool) {
	bySvc, ok := s.Data[m]
	if !ok {
		return nil, false
	}
	series, ok := bySvc[svc]
	return series, ok
}

// Validate checks structural consistency: every metric has a series for
// every service, and within one metric all series have equal length.
func (s *Snapshot) Validate() error {
	if len(s.Metrics) == 0 {
		return fmt.Errorf("metrics: snapshot has no metrics")
	}
	if len(s.Services) == 0 {
		return fmt.Errorf("metrics: snapshot has no services")
	}
	for _, m := range s.Metrics {
		bySvc, ok := s.Data[m]
		if !ok {
			return fmt.Errorf("metrics: snapshot missing data for metric %q", m)
		}
		want := -1
		for _, svc := range s.Services {
			series, ok := bySvc[svc]
			if !ok {
				return fmt.Errorf("metrics: metric %q missing service %q", m, svc)
			}
			if want == -1 {
				want = len(series)
			} else if len(series) != want {
				return fmt.Errorf("metrics: metric %q service %q has %d windows, want %d",
					m, svc, len(series), want)
			}
		}
	}
	return nil
}

// ValidateTolerant checks a possibly-degraded snapshot: the universe must be
// declared, every stored series must belong to a declared (metric, service)
// pair, and every stored value must be finite. Unlike Validate it permits
// missing pairs and unequal series lengths — those are legitimate outcomes of
// lossy collection that the tolerant learner/localizer path handles.
//
// The check is deterministic: it walks the declared metrics and services in
// order, and when some stored key is undeclared it reports the first one in
// sorted (metric, service) order.
func (s *Snapshot) ValidateTolerant() error {
	if len(s.Metrics) == 0 {
		return fmt.Errorf("metrics: snapshot has no metrics")
	}
	if len(s.Services) == 0 {
		return fmt.Errorf("metrics: snapshot has no services")
	}
	metricNames, declaredM := declared(s.Metrics)
	services, declaredS := declared(s.Services)
	storedMetrics, undeclared := 0, false
	for _, m := range metricNames {
		bySvc, ok := s.Data[m]
		if !ok {
			continue
		}
		storedMetrics++
		stored := 0
		for _, svc := range services {
			series, ok := bySvc[svc]
			if !ok {
				continue
			}
			stored++
			for i, v := range series {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("metrics: metric %q service %q has non-finite value %v at window %d", m, svc, v, i)
				}
			}
		}
		undeclared = undeclared || stored != len(bySvc)
	}
	if !undeclared && storedMetrics == len(s.Data) {
		return nil
	}
	for _, m := range sortedKeys(s.Data) {
		if !declaredM[m] {
			return fmt.Errorf("metrics: snapshot stores undeclared metric %q", m)
		}
		for _, svc := range sortedKeys(s.Data[m]) {
			if !declaredS[svc] {
				return fmt.Errorf("metrics: metric %q stores undeclared service %q", m, svc)
			}
		}
	}
	return nil
}

// declared returns names without repeats, first occurrences in order (names
// itself when it repeats nothing, so the walk counts each stored key once),
// and their membership set.
func declared(names []string) ([]string, map[string]bool) {
	set := make(map[string]bool, len(names))
	var out []string
	for i, n := range names {
		switch {
		case set[n] && out == nil:
			out = append([]string(nil), names[:i]...)
		case !set[n] && out != nil:
			out = append(out, n)
		}
		set[n] = true
	}
	if out == nil {
		out = names
	}
	return out, set
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WindowCount returns the number of windows per series (0 for an empty
// snapshot). It assumes Validate passed.
func (s *Snapshot) WindowCount() int {
	for _, m := range s.Metrics {
		for _, svc := range s.Services {
			return len(s.Data[m][svc])
		}
	}
	return 0
}

// Clone deep-copies the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	out := NewSnapshot(s.Metrics, s.Services)
	for m, bySvc := range s.Data {
		if _, ok := out.Data[m]; !ok {
			out.Data[m] = make(map[string][]float64, len(bySvc))
		}
		for svc, series := range bySvc {
			out.Data[m][svc] = append([]float64(nil), series...)
		}
	}
	return out
}

// Project returns a sub-snapshot restricted to the named metrics, sharing
// the underlying series (read-only use). It lets techniques that need only a
// subset of a jointly collected dataset (e.g. the error-log-only baseline)
// run against the exact same collection pass as everyone else.
func (s *Snapshot) Project(metricNames []string) (*Snapshot, error) {
	out := &Snapshot{
		Metrics:  append([]string(nil), metricNames...),
		Services: append([]string(nil), s.Services...),
		Data:     make(map[string]map[string][]float64, len(metricNames)),
	}
	for _, m := range metricNames {
		bySvc, ok := s.Data[m]
		if !ok {
			return nil, fmt.Errorf("metrics: project: snapshot has no metric %q", m)
		}
		out.Data[m] = bySvc
	}
	return out, nil
}

// SortedMetricNames returns the metric names sorted alphabetically, for
// deterministic report rendering.
func (s *Snapshot) SortedMetricNames() []string {
	out := append([]string(nil), s.Metrics...)
	sort.Strings(out)
	return out
}
