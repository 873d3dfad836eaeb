package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// setupReps is how many times a run builds its system; setup_s reports
// the median build and the last build serves the measured phase.
const setupReps = 5

// e2eResult is the untraced run of one workload.
type e2eResult struct {
	attempted, failed int
	lat               []int32 // per-request call→reply time, ns, in order
	life              []lifeEvent
	marks             []cpuMark
	wall              time.Duration
	setups            []time.Duration
	calib             []time.Duration // calibration samples (calib.go)
	calibTime         time.Duration   // of which inside the measured phase
	peakRSS           float64         // MiB, read when the measured phase ends
	endFailures       int             // final-state and recovery oracle mismatches
	notes             []string
}

// lifeEvent is one lifecycle call: it ran before request at, for ns.
type lifeEvent struct {
	at int
	ns int64
}

// cpuEvery is how many requests pass between thread-CPU-clock samples
// (one sample costs a system call of ~0.3 µs).
const cpuEvery = 16

// measure drives step over request indexes 0, 1, ... in one closed loop
// for d. lifecycle, when non-nil, runs before request i whenever
// churn divides i (i > 0). The loop runs on a locked OS thread so the
// thread CPU clock sampled every cpuEvery requests belongs to it.
func measure(d time.Duration, churn int, lifecycle func(k int) error, step func(i int) bool) *e2eResult {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Sized for 400k requests a second over 20 s, so the loop's own
	// slices do not reallocate under the measurement.
	res := &e2eResult{lat: make([]int32, 0, 1<<23), marks: make([]cpuMark, 0, 1<<19)}
	var lifeErr error
	start := time.Now()
	end := start.Add(d)
	last := start
	lastCalib := start
	for i := 0; last.Before(end); i++ {
		if i%cpuEvery == 0 {
			if last.Sub(lastCalib) >= calibEvery {
				c := calibrate()
				res.calib = append(res.calib, c)
				res.calibTime += c
				lastCalib = time.Now()
			}
			res.marks = append(res.marks, cpuMark{at: int32(i), life: int32(len(res.life)), wall: time.Since(start), cpu: threadCPU()})
		}
		if lifecycle != nil && i > 0 && i%churn == 0 {
			t0 := time.Now()
			err := lifecycle(i/churn - 1)
			t1 := time.Now()
			res.life = append(res.life, lifeEvent{at: i, ns: int64(t1.Sub(t0))})
			if err != nil {
				res.failed++
				if lifeErr == nil {
					lifeErr = err
				}
			}
		}
		t0 := time.Now()
		ok := step(i)
		t1 := time.Now()
		res.lat = append(res.lat, int32(t1.Sub(t0)))
		if !ok {
			res.failed++
		}
		last = t1
	}
	res.marks = append(res.marks, cpuMark{at: int32(len(res.lat)), life: int32(len(res.life)), wall: time.Since(start), cpu: threadCPU()})
	res.wall = last.Sub(start)
	res.peakRSS = peakRSSMB()
	res.attempted = len(res.lat)
	if lifeErr != nil {
		res.notes = append(res.notes, "lifecycle: "+lifeErr.Error())
	}
	return res
}

// runE2E builds the workload's system setupReps times, then drives the
// pre-generated ring through the last build in one closed loop for d.
func runE2E(w *workloadDef, seed int64, d time.Duration) (*e2eResult, error) {
	if w.ds {
		return runDSE2E(w, seed, d)
	}
	in := genKV(w.proto, seed, w.ring, w.getPct, w.keySpace, preloaded)
	var setups, calib []time.Duration
	var sys *kvSystem
	for r := 0; r < setupReps; r++ {
		if sys != nil {
			sys.fe.Close()
			sys = nil
			settle()
		}
		calib = append(calib, calibrate())
		s, err := newKVSystem(w, seed)
		if err != nil {
			return nil, err
		}
		sys = s
		setups = append(setups, s.setup)
	}
	settle()

	n := len(in.frames)
	var lifecycle func(int) error
	if w.churn > 0 {
		lifecycle = sys.lifecycle
	}
	res := measure(d, w.churn, lifecycle, func(i int) bool {
		pos := i % n
		reply, _, _ := sys.fe.Execute(0, in.frames[pos])
		if sys.clock != nil {
			sys.clock.tick()
		}
		return checkReply(w, in, pos, i/n, reply)
	})
	res.setups = setups
	res.calib = append(calib, res.calib...)

	if bad := checkFinal(w, sys.fe, in, res.attempted); bad > 0 {
		res.endFailures += bad
		res.notes = append(res.notes, fmt.Sprintf("final state: %d keys differ from the oracle", bad))
	}
	if !w.durable {
		sys.fe.Close()
		return res, nil
	}
	took, info, bad, err := checkRecovered(w, sys, in, res.attempted)
	if err != nil {
		return nil, err
	}
	res.endFailures += bad
	res.notes = append(res.notes, fmt.Sprintf("recovery: %.1f ms, %d records replayed, %d keys differ", ms(took), info.Replayed, bad))
	return res, nil
}

func runDSE2E(w *workloadDef, seed int64, d time.Duration) (*e2eResult, error) {
	in := genDS(seed, w.ring, preloaded)
	var setups, calib []time.Duration
	var sys *dsSystem
	for r := 0; r < setupReps; r++ {
		if sys != nil {
			sys.o.Close()
			sys = nil
			settle()
		}
		calib = append(calib, calibrate())
		s, err := newDSSystem(in)
		if err != nil {
			return nil, err
		}
		sys = s
		setups = append(setups, s.setup)
	}
	settle()

	n := len(in.op)
	res := measure(d, 0, nil, func(i int) bool {
		pos := i % n
		want := in.firstPass[pos]
		if i >= n {
			want = in.laterPass[pos]
		}
		return dsOp(sys.o, in, pos, want)
	})
	res.setups = setups
	res.calib = append(calib, res.calib...)
	sys.o.Close()
	return res, nil
}

// settle collects the garbage of discarded builds so each phase starts
// from the same heap state.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// e2eMetrics turns a run into the end-to-end metrics at the reference
// host speed, and also returns them as measured (raw) with the run's
// host factor h. Times are divided by h and rates multiplied by it.
// slo_rate_kops is not scaled: its 100 µs limit is wall time, and the
// host's own stalls that set it do not shorten when the host runs fast,
// so scaling service times by h moved it between runs of the same code
// more than it steadied it.
func e2eMetrics(res *e2eResult, seed int64) (metrics, raw map[string]float64, h float64) {
	h = hostFactor(res.calib)
	svc, life := netOfPreemption(res.lat, res.life, res.marks)
	slo := sloRate(svc, life, sloGaps(seed, len(svc)), sloLimitNs)
	sorted := slices.Clone(res.lat)
	slices.Sort(sorted)
	setups := make([]float64, len(res.setups))
	for i, s := range res.setups {
		setups[i] = s.Seconds()
	}
	raw = map[string]float64{
		"ops_per_s":     float64(res.attempted) / (res.wall - res.calibTime).Seconds(),
		"lat_p50_us":    float64(quantile32(sorted, 0.50)) / 1e3,
		"lat_p99_us":    float64(quantile32(sorted, 0.99)) / 1e3,
		"slo_rate_kops": slo / 1e3,
		"ok_ratio":      1 - float64(res.failed)/float64(res.attempted),
		"setup_s":       median(setups),
		"peak_rss_mb":   res.peakRSS,
	}
	metrics = map[string]float64{
		"ops_per_s":     raw["ops_per_s"] * h,
		"lat_p99_us":    raw["lat_p99_us"] / h,
		"slo_rate_kops": raw["slo_rate_kops"],
		"ok_ratio":      raw["ok_ratio"],
		"setup_s":       raw["setup_s"] / h,
		"peak_rss_mb":   raw["peak_rss_mb"],
	}
	return metrics, raw, h
}

// quantile32 returns the nearest-rank q-quantile of sorted samples.
func quantile32(sorted []int32, q float64) int32 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the 0-based nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(float64(n)*q)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
