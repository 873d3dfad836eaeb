package main

import (
	"time"
)

// The host this benchmark runs on is shared: a fixed CPU-bound loop takes
// ±25% longer or shorter from one second to the next, and the drift does
// not average out over a run. Throughput, latency and setup time are
// therefore reported at a reference host speed. A fixed calibration
// loop, independent of the program, runs every calibEvery of the
// measured phase and around every setup; the run's host factor is the
// median calibration time over calibNominal, and times are divided by it
// (ops_per_s multiplied). On a quiet development host (2 vCPU Xeon) the
// factor is about 1. The raw values are printed alongside.

// calibNominal is the calibration loop's time on a quiet host.
const calibNominal = time.Millisecond

// calibEvery spaces the calibration samples in the measured phase.
const calibEvery = 250 * time.Millisecond

// Calibration data: a 1 MiB table for cache-resident random updates, a
// 16 MiB table for random reads that miss the caches, and a 192 KiB
// array shifted by one word. All are pointer-free, so the garbage
// collector's state does not change the calibration's speed.
var (
	calibSmall = make([]uint64, 1<<17)
	calibLarge = make([]uint64, 2<<20)
	calibShift = make([]uint64, 24576)
	calibSink  uint64
)

// calibrate runs the calibration loop once and returns its duration.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += calibSmall[x&(1<<17-1)]
		calibSmall[(x>>20)&(1<<17-1)] = acc
	}
	for i := 0; i < 20_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += calibLarge[x&(2<<20-1)]
	}
	for i := 0; i < 10; i++ {
		copy(calibShift, calibShift[1:])
	}
	calibSink += acc
	return time.Since(t0)
}

// hostFactor is the median calibration time over calibNominal: above 1
// when the host ran slower than the reference speed.
func hostFactor(samples []time.Duration) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = float64(s) / float64(calibNominal)
	}
	if len(v) == 0 {
		return 1
	}
	return median(v)
}
