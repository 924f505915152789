package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// epoch anchors every timestamp the benchmark takes: time.Since reads the
// monotonic clock, so all stamps share one clock across goroutines.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// rankInt is the nearest-rank q-quantile of exact integer measurements
// (virtual ticks), so it stays an exact value of the sample.
func rankInt(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// timedSamples times a sim workload's passes over its seed list. The first
// pass warms caches and the heap and is not timed, unless the run is capped
// at one sample; the --seconds of measurement start after it, and at least
// one pass is always timed.
type timedSamples struct {
	o         opts
	skipFirst bool
	start     time.Time
	n         int    // timed samples
	cpu       int64  // their CPU time, ns
	allocs    uint64 // their heap allocations, bytes
	c0        int64
	a0        uint64
}

func newTimedSamples(o opts) *timedSamples {
	return &timedSamples{o: o, skipFirst: o.maxSamples != 1, start: time.Now()}
}

func (t *timedSamples) timed(sample int) bool { return sample > 0 || !t.skipFirst }

func (t *timedSamples) begin(sample int) {
	if t.timed(sample) {
		t.c0, t.a0 = cpuNS(), allocBytes()
	}
}

// end closes a pass and reports whether the run is over.
func (t *timedSamples) end(sample int) bool {
	if t.timed(sample) {
		t.cpu += cpuNS() - t.c0
		t.allocs += allocBytes() - t.a0
		t.n++
	} else {
		t.start = time.Now()
	}
	return (t.o.maxSamples > 0 && sample+1 >= t.o.maxSamples) ||
		(t.n > 0 && time.Since(t.start).Seconds() >= t.o.seconds)
}

// cpuS is the timed samples' CPU time in seconds.
func (t *timedSamples) cpuS() float64 { return float64(t.cpu) / 1e9 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Linux's CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// cpuNS is the CPU time all of the process's threads have used, to the
// nanosecond. Unlike wall time it leaves out time the process waited for a
// CPU and, where the kernel accounts steal time, time the hypervisor ran
// other guests on the VM's vCPUs.
func cpuNS() int64 { return clockNS(clockProcessCPUTimeID) }

// threadCPUNS is the CPU time the calling OS thread has used; the caller
// holds its goroutine to the thread with runtime.LockOSThread.
func threadCPUNS() int64 { return clockNS(clockThreadCPUTimeID) }

func clockNS(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return ts.Nano()
}
