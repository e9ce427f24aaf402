package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The CPU-time clocks of clock_gettime(2). A thread's CPU time counts only
// while it runs: not while it waits, is preempted, or, on a guest with
// paravirtual steal-time accounting, while the host runs something else on
// the processor.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// cpuTime reads one of the CPU-time clocks. The thread clock is only
// meaningful while the calling goroutine is locked to its thread.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// CPU time still varies with the machine: on a shared host a neighbour's
// load slows the core itself, by 10–20% from one minute to the next. The
// CPU-time metrics are therefore normalised by a reference kernel, a fixed
// chain of dependent loads and multiplies over a 4 MiB table that runs
// beside each workload: a metric is scaled by refNominal over the kernel's
// median CPU time in the same run, as if the run had had a core of the
// reference speed. The kernel is the benchmark's own code, so a change to
// causalfl moves the metric and not the scale.
const (
	refNominal = 1.85e-3 // seconds: the kernel's usual CPU time on the machine the bounds were set on
	refLoads   = 200_000
	refReps    = 9
)

var refTable = func() []uint64 {
	t := make([]uint64, 1<<19)
	for i := range t {
		t[i] = uint64(i)*2654435761 + 7
	}
	return t
}()

var refSink uint64 // keeps the kernel's result alive

// refProbe runs the reference kernel refReps times and returns the median
// CPU time of one run in seconds.
func refProbe() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	secs := make([]float64, refReps)
	for k := range secs {
		c0 := cpuTime(clockThreadCPU)
		x := uint64(1)
		for i := 0; i < refLoads; i++ {
			x = refTable[x%uint64(len(refTable))] ^ (x * 6364136223846793005)
		}
		refSink += x
		secs[k] = (cpuTime(clockThreadCPU) - c0).Seconds()
	}
	return median(secs)
}

// refScale is the factor that normalises a CPU time measured beside the
// given probes to the reference core: a time is multiplied by it, a rate
// divided.
func refScale(probes []float64) float64 {
	return refNominal / median(probes)
}
