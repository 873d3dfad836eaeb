package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU reads the calling thread's CPU clock, in ns. It advances
// only while the thread runs, so wall time it misses is time the host
// took the thread off its CPU.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuMark samples the loop's wall and thread CPU clocks before request
// at, when life lifecycle calls had run.
type cpuMark struct {
	at, life  int32
	wall, cpu time.Duration
}

// preemptMin is the smallest off-CPU gap netOfPreemption removes.
const preemptMin = 20 * time.Microsecond

// netOfPreemption returns the service times (and lifecycle durations)
// with host preemption taken out: between two marks, wall time the
// thread CPU clock did not see was spent off the CPU, and is removed
// from the longest request or lifecycle call of that stretch when it
// fits inside it. A stall is then charged to the program only when the
// program itself was running, so the open-loop replay tracks the
// program's stalls (snapshots, lifecycle pauses, GC assists) rather
// than how often a shared host deschedules the benchmark.
func netOfPreemption(lat []int32, life []lifeEvent, marks []cpuMark) ([]int32, []lifeEvent) {
	svc := append([]int32(nil), lat...)
	lf := append([]lifeEvent(nil), life...)
	for k := 1; k < len(marks); k++ {
		a, b := marks[k-1], marks[k]
		off := (b.wall - a.wall) - (b.cpu - a.cpu)
		if off < preemptMin {
			continue
		}
		req, reqNs := -1, int64(0)
		for i := int(a.at); i < int(b.at); i++ {
			if int64(svc[i]) > reqNs {
				req, reqNs = i, int64(svc[i])
			}
		}
		ev, evNs := -1, int64(0)
		for j := int(a.life); j < int(b.life); j++ {
			if lf[j].ns > evNs {
				ev, evNs = j, lf[j].ns
			}
		}
		switch {
		case evNs > reqNs && evNs > int64(off):
			lf[ev].ns -= int64(off)
		case req >= 0 && reqNs > int64(off):
			svc[req] -= int32(off)
		}
	}
	return svc, lf
}
