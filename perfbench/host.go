package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostInfo fingerprints the machine a result was measured on. The spin
// ratio is the wall time of a fixed spin loop run on two goroutines at
// once against one goroutine alone: near 1 when two cores really run in
// parallel, 2 or more when they do not, in which case no multi-core
// claim can be read off this host.
type hostInfo struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	SpinRatio  float64 `json:"spin_ratio_2v1"`
}

func fingerprint() hostInfo {
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		SpinRatio:  spinRatio(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spinSink keeps the spin loops' results observable.
var spinSink [2]uint64

func spin(slot int) {
	x := uint64(slot + 1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink[slot] = x
}

func spinRatio() float64 {
	t0 := time.Now()
	spin(0)
	one := time.Since(t0)
	var wg sync.WaitGroup
	t0 = time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			spin(slot)
		}(g)
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(one)
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
