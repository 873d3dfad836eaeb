package main

import (
	"math"
	"math/rand"
)

// sloLimitNs is slo_rate_kops's latency limit: p99 of wait plus service
// at most 100 µs.
const sloLimitNs = 100_000

// sloGaps draws n unit-mean exponential inter-arrival gaps: one seeded
// Poisson arrival pattern, which sloRate scales by rate.
func sloGaps(seed int64, n int) []float32 {
	r := rand.New(rand.NewSource(seed))
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(r.ExpFloat64())
	}
	return g
}

// sloMeets replays the in-order service times (ns) through one FIFO
// server whose requests arrive at gaps scaled to rate (requests per
// second), and reports whether the p99 of wait plus service is within
// limit. A lifecycle call before request i keeps the server busy for its
// duration from the moment request i-1 completes.
func sloMeets(service []int32, life []lifeEvent, gaps []float32, rate, limitNs float64) bool {
	scale := 1e9 / rate
	var arrive, free float64
	li, good := 0, 0
	for i, s := range service {
		for li < len(life) && life[li].at == i {
			free += float64(life[li].ns)
			li++
		}
		arrive += float64(gaps[i]) * scale
		start := math.Max(arrive, free)
		free = start + float64(s)
		if free-arrive <= limitNs {
			good++
		}
	}
	return good >= rank(len(service), 0.99)+1
}

// sloRate is the highest arrival rate (requests per second) at which
// sloMeets holds. Raising the rate only shortens every gap, so each
// request's wait can only grow: the predicate is monotone and a
// bisection between the server's saturation rate and 10^-4 of it finds
// the boundary. It returns 0 when even the lowest rate misses the limit.
func sloRate(service []int32, life []lifeEvent, gaps []float32, limitNs float64) float64 {
	if len(service) == 0 {
		return 0
	}
	var busy float64
	for _, s := range service {
		busy += float64(s)
	}
	for _, l := range life {
		busy += float64(l.ns)
	}
	hi := float64(len(service)) / busy * 1e9 // utilization 1
	lo := hi * 1e-4
	if sloMeets(service, life, gaps, hi, limitNs) {
		return hi
	}
	if !sloMeets(service, life, gaps, lo, limitNs) {
		return 0
	}
	for iter := 0; iter < 40 && hi-lo > hi*1e-6; iter++ {
		mid := (lo + hi) / 2
		if sloMeets(service, life, gaps, mid, limitNs) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
