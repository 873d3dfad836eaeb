package main

import (
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Span names. Request spans carry the id of the input they replay, so
// the replays of one input through different layers can be matched.
const (
	spPhase          = iota // setup or replay of one layer instance
	spRun                   // kflex.Handle.Run on the bare extension
	spSupervisor            // supervisor.Supervisor.Run
	spStore                 // authoritative store Set (SET stream only)
	spExecute               // front end Execute
	spDSOp                  // ds.Offloaded operation
	spMigrate               // supervisor.Supervisor.Migrate
	spQuarantine            // supervisor.Supervisor.Quarantine
	spReload                // the Execute that performed a warm reload
	spSnapshot              // the store Set that wrote a snapshot
	spRecover               // durable.Open after a crash
	spUntracedReplay        // the untraced control replay, one span
)

var spanNames = []string{
	"phase", "kflex.run", "supervisor.run", "store.set", "apps.execute", "ds.op",
	"supervisor.migrate", "supervisor.quarantine", "supervisor.reload",
	"durable.snapshot", "durable.recover", "untraced.replay",
}

// span is one recorded interval. Times are ns since the tracer's epoch;
// parent indexes the enclosing phase span (-1 for none); req is the
// input id (-1 for spans that replay no input).
type span struct {
	name       uint8
	label      string // phase spans: which instance and stage
	parent     int32
	req        int32
	start, end int64
}

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name uint8, parent int32, req int, start, end int64) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, req: int32(req), start: start, end: end})
	return int32(len(t.spans) - 1)
}

// phase opens a phase span; the returned func closes it.
func (t *tracer) phase(label string) (int32, func()) {
	id := t.add(spPhase, -1, -1, t.now(), 0)
	t.spans[id].label = label
	return id, func() { t.spans[id].end = t.now() }
}

// write dumps every span as gzipped CSV.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	fmt.Fprintln(zw, "id,name,label,parent,req,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(zw, "%d,%s,%s,%d,%d,%d,%d\n", i, spanNames[s.name], s.label, s.parent, s.req, s.start, s.end)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceResult is the traced run of one workload.
type traceResult struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	layer  string
	calls  int
	total  int64 // ns inside the layer's spans
	self   int64 // total minus the spans of the layers beneath it on the same inputs
	counts string
}

// runTrace replays the first w.traceN inputs of the seed's ring through
// each layer's public entry point, bottom-up, every layer on its own
// instance built with the same config, then once more through the front
// end without spans as the overhead control. It writes spans.csv.gz,
// layers.txt and returns the per-layer metrics.
func runTrace(w *workloadDef, seed int64, dir string) (*traceResult, error) {
	tr := newTracer(6*w.traceN + 1024)
	var res *traceResult
	var rows []layerRow
	var err error
	if w.ds {
		res, rows, err = traceDS(w, seed, tr)
	} else {
		res, rows, err = traceKV(w, seed, tr)
	}
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(dir, "spans.csv.gz")); err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed %d: %d inputs replayed per layer; self = layer span minus the spans of the layers beneath it on the same inputs\n",
		w.name, seed, w.traceN)
	fmt.Fprintf(&b, "%-16s %8s %12s %12s %12s  %s\n", "layer", "calls", "total_ms", "self_ms", "self_ns/op", "counts at the layer boundary")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %12.3f %12.3f %12.1f  %s\n", r.layer, r.calls,
			float64(r.total)/1e6, float64(r.self)/1e6, float64(r.self)/float64(w.traceN), r.counts)
	}
	fmt.Fprintf(&b, "trace.overhead_pct %.2f\n", res.metrics["trace.overhead_pct"])
	fmt.Print(b.String())
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(b.String()), 0o644); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("peak RSS %.1f MiB", peakRSSMB()))
	for _, m := range layerMetricList {
		if _, ok := res.metrics[m[0]]; !ok {
			res.metrics[m[0]] = 0 // the layer does no work on this workload
		}
	}
	return res, nil
}

// traceChunk is how many inputs one layer replays before the next layer
// replays the same inputs.
const traceChunk = 500

// memDelta accumulates the Go runtime's allocation and GC counters over
// the stretches of the untraced control replay.
type memDelta struct {
	before                     runtime.MemStats
	allocBytes, gcs, gcPauseNs uint64
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocBytes += after.TotalAlloc - m.before.TotalAlloc
	m.gcs += uint64(after.NumGC - m.before.NumGC)
	m.gcPauseNs += after.PauseTotalNs - m.before.PauseTotalNs
}

func (m *memDelta) metrics(out map[string]float64, ops int) {
	out["runtime.alloc_bytes_per_op"] = float64(m.allocBytes) / float64(ops)
	out["runtime.gc_cycles"] = float64(m.gcs)
	out["runtime.gc_pause_ms"] = float64(m.gcPauseNs) / 1e6
}

// quantile64 returns the nearest-rank q-quantile of v (v is sorted in
// place).
func quantile64(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	return float64(v[rank(len(v), q)])
}

func sum64(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// stageMetrics reports the load pipeline's stage durations: the median
// over the run's instances, each loaded into its own runtime (so every
// load is a compile-cache miss).
func stageMetrics(out map[string]float64, stages map[string][]float64) {
	out["verifier.verify_ms"] = median(stages["verify"])
	out["kie.instrument_ms"] = median(stages["instrument"])
	out["compile.lower_ms"] = median(stages["lower"])
	out["kflex.link_ms"] = median(stages["link"])
}
