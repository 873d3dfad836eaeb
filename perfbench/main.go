// Command perfbench is the repository's benchmark: four workloads
// driven through the public entry points of the runtime, supervisor,
// durable store, front ends and data-structure offloads by one client
// goroutine in a closed loop. See README.md for the workloads, metrics
// and the layer map.
//
// Usage:
//
//	perfbench --workload kv-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// replays a fixed prefix of the same inputs through every layer with
// spans and reports the per-layer metrics. The last line of standard
// output is the JSON result; artifacts go under --out. The exit code is
// non-zero when any oracle check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricUnits gives every metric its unit.
var metricUnits = map[string]string{}

func unitOf(name string) string {
	if u, ok := metricUnits[name]; ok {
		return u
	}
	panic("perfbench: metric without a unit: " + name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name (kv-read, kv-write, ds-chase, kv-churn)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase (untraced run)")
	trace := flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	out := flag.String("out", filepath.Join("perfbench", "out"), "artifact directory")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	host := fingerprint()
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)

	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	var res result
	var notes []string
	if *trace == 0 {
		e, err := runE2E(w, *seed, time.Duration(*seconds)*time.Second)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		m, raw, h := e2eMetrics(e, *seed)
		res = result{Attempted: e.attempted, Failed: e.failed + e.endFailures, Metrics: withUnits(m)}
		notes = append(e.notes, fmt.Sprintf("%d requests in %.3f s, %d latency samples, fail_ratio %g",
			e.attempted, e.wall.Seconds(), len(e.lat), float64(e.failed)/float64(e.attempted)))
		notes = append(notes, fmt.Sprintf("host factor %.4f (median of %d calibration samples); as measured: %s",
			h, len(e.calib), formatMetrics(raw)))
	} else {
		t, err := runTrace(w, *seed, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res = result{Attempted: t.attempted, Failed: t.failed, Metrics: withUnits(t.metrics)}
		notes = t.notes
	}
	res.Correct = res.Failed == 0
	for _, n := range notes {
		fmt.Println(w.name + ": " + n)
	}
	printTable(res.Metrics)
	doc, err := json.MarshalIndent(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Trace    int      `json:"trace"`
		Host     hostInfo `json:"host"`
		Notes    []string `json:"notes"`
		Result   result   `json:"result"`
	}{w.name, *seed, *trace, host, notes, res}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "result.json"), doc, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// formatMetrics renders metrics as sorted name=value pairs.
func formatMetrics(m map[string]float64) string {
	var b strings.Builder
	for i, k := range sortedNames(m) {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.6g", k, m[k])
	}
	return b.String()
}

func withUnits(m map[string]float64) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		out[k] = metric{Value: v, Unit: unitOf(k)}
	}
	return out
}

func printTable(m map[string]metric) {
	for _, k := range sortedNames(m) {
		fmt.Printf("  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
