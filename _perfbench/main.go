// Command perfbench is causalfl's performance benchmark. One run builds the
// inputs of both workloads from a seed, measures the named workload for the
// given time and the other at a companion share of it, checks every output
// against an independent in-process reference, and prints one JSON result
// as its last line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separate traced replay, which also measures the offline
// campaign. See README.md.
//
//	bash _perfbench/run.sh --workload serve-mixed --seed 1 --seconds 16 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// The workloads. Every run measures both, so every metric is present in
// every run; the named one gets the full run length.
const (
	workloadServe = "serve-mixed"
	workloadFleet = "stream-fleet"
)

var workloads = []string{workloadServe, workloadFleet}

const (
	// instances is how often an untraced run builds each workload and
	// measures it; setup_s sums the median build times.
	instances = 4
	// rounds is how many alternations of the live tenant alone and beside
	// the backfill flood one serve-mixed instance is measured in.
	rounds = 4
	// companionShare is the share of the run length a workload gets when it
	// is not the named one.
	companionShare = 0.5
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch space for snapshot stores, removed at exit
}

// result is the last line of a run's output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	// One processor: on a small shared machine the second one's speed
	// swings with its neighbours' load, and work handed between the two
	// carries that swing into every latency and rate. Kernel work done for
	// the process, such as the loopback network, still runs on either.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured length of the named workload")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced replay and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !validWorkload(o.workload) || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --seconds > 0, --trace 0 or 1\n", workloads)
		return 2
	}
	o.trace = trace == 1
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workDir, _ = filepath.Abs(dir)

	res, err := bench(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return 0
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

// tally is one workload's operation accounting.
type tally struct {
	attempted int
	failed    int
	wrong     int // failed correctness checks, also counted in failed
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.wrong += u.wrong
}

// bench runs one benchmark run and returns its result.
//
// The workloads run one after the other, each with only its own heap alive:
// the fleet's quarter gigabyte would otherwise be marked by every GC the
// serve flood triggers. An untraced run builds each workload afresh
// `instances` times and measures each instance for an equal share of the
// workload's time. An end-to-end metric is the median over the instances,
// so one instance that lands in a slow patch of the machine, or on slow
// memory, does not set it. A traced run builds one instance of each.
func bench(ctx context.Context, o options) (*result, error) {
	stamp(o)
	full := time.Duration(o.seconds * float64(time.Second))
	n := instances
	if o.trace {
		n = 1
	}
	share := func(w string) time.Duration {
		d := time.Duration(float64(full) * companionShare)
		if w == o.workload {
			d = full
		}
		return d / time.Duration(n)
	}

	m := metricSet{}
	var runs []metricSet // each instance's end-to-end metrics
	var sum tally
	var serveSetup, fleetSetup []float64
	stalls := 0
	for k := 0; k < n; k++ {
		runs = append(runs, metricSet{})
		runtime.GC()
		t0 := time.Now()
		sm, err := newServeMixed(ctx, o.workDir, o.seed)
		if err != nil {
			return nil, err
		}
		serveSetup = append(serveSetup, time.Since(t0).Seconds())
		err = sm.measure(ctx, share(workloadServe), o.trace, runs[k], m)
		if err == nil {
			// Last, so it covers the ticks of every pass.
			err = sm.check(ctx)
		}
		sm.close()
		if err != nil {
			return nil, err
		}
		sum.add(sm.tally)
		stalls += sm.stalls()
	}
	for k := 0; k < n; k++ {
		runtime.GC()
		t0 := time.Now()
		fl, err := newFleet(ctx, o.seed)
		if err != nil {
			return nil, err
		}
		fleetSetup = append(fleetSetup, time.Since(t0).Seconds())
		if err := fl.run(ctx, share(workloadFleet), k == 0); err != nil {
			return nil, err
		}
		fl.finish()
		if o.trace {
			if err := fl.trace(ctx, m); err != nil {
				return nil, err
			}
			fl.heapMB() // drops the fleet before the campaign
		} else {
			fl.e2e(runs[k])
			runs[k].put("fleet_heap_mb", fl.heapMB(), "MB")
		}
		sum.add(fl.tally)
	}
	off := &offline{seed: o.seed}
	if o.trace {
		if err := off.campaign(ctx); err != nil {
			return nil, err
		}
		off.report(m)
		if err := off.trace(ctx, m); err != nil {
			return nil, err
		}
		if err := off.check(ctx); err != nil {
			return nil, err
		}
		sum.add(off.tally)
	} else {
		for name, x := range runs[0] {
			vals := make([]float64, n)
			for k := range runs {
				vals[k] = runs[k][name].Value
			}
			m.put(name, median(vals), x.Unit)
			fmt.Printf("%-26s %s median %.4g %s\n", name, fmt.Sprintf("%.4g", vals), median(vals), x.Unit)
		}
		m.put("setup_s", median(serveSetup)+median(fleetSetup), "s")
	}

	fmt.Printf("set-up times: serve %.3f s, fleet %.3f s\n", serveSetup, fleetSetup)
	fmt.Printf("operations attempted %d, failed %d (incl. %d poll stalls)\n", sum.attempted, sum.failed, stalls)
	return &result{
		Attempted: sum.attempted,
		Failed:    sum.failed,
		Correct:   sum.wrong == 0,
		Metrics:   m,
	}, nil
}

// stamp prints the environment the run was measured in.
func stamp(o options) {
	env := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"instances":  instances,
	}
	blob, _ := json.Marshal(env)
	fmt.Println("env", string(blob))
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// printCoverage prints a workload's coverage row.
func printCoverage(workload, op string, untraced, traced, layers float64) {
	fmt.Printf("coverage %-16s per %s: end-to-end %.2f us untraced, %.2f us traced; layer self-times %.2f us; remainder %.2f us (%.1f%%); tracing overhead %.1f%%\n",
		workload, op, untraced*1e6, traced*1e6, layers*1e6, (untraced-layers)*1e6,
		100*(untraced-layers)/untraced, 100*(traced-untraced)/untraced)
}
