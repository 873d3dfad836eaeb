package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

// smallRing keeps the tests' input rings short.
const smallRing = 4000

// digest hashes generated kv inputs.
func (in *kvInputs) digest() uint64 {
	h := fnv.New64a()
	for _, f := range in.frames {
		h.Write(f)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func (in *dsInputs) digest() uint64 {
	h := fnv.New64a()
	var b [17]byte
	for i := range in.op {
		b[0] = in.op[i]
		for j := 0; j < 8; j++ {
			b[1+j] = byte(in.key[i] >> (8 * j))
			b[9+j] = byte(in.val[i] >> (8 * j))
		}
		h.Write(b[:])
	}
	for _, k := range in.pre {
		for j := 0; j < 8; j++ {
			b[j] = byte(k >> (8 * j))
		}
		h.Write(b[:8])
	}
	return h.Sum64()
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.ds {
				a, b, c := genDS(1, smallRing, preloaded), genDS(1, smallRing, preloaded), genDS(2, smallRing, preloaded)
				if a.digest() != b.digest() {
					t.Fatal("same seed gave different ds inputs")
				}
				if a.digest() == c.digest() {
					t.Fatal("different seeds gave identical ds inputs")
				}
				return
			}
			a := genKV(w.proto, 1, smallRing, w.getPct, w.keySpace, preloaded)
			b := genKV(w.proto, 1, smallRing, w.getPct, w.keySpace, preloaded)
			c := genKV(w.proto, 2, smallRing, w.getPct, w.keySpace, preloaded)
			for i := range a.frames {
				if !bytes.Equal(a.frames[i], b.frames[i]) {
					t.Fatalf("same seed: frame %d differs", i)
				}
			}
			if a.digest() == c.digest() {
				t.Fatal("different seeds gave identical kv inputs")
			}
		})
	}
}

// deterministicCounters are the per-layer metrics that count work rather
// than time it; they must repeat bit for bit for a seed.
var deterministicCounters = []string{
	"vm.insns_per_op", "vm.dispatches_per_op", "vm.fused_per_op", "vm.guards_per_op", "vm.probes_per_op",
	"kernel.helper_calls_per_op",
	"alloc.allocs_per_kop", "alloc.frees_per_kop", "alloc.refills_per_kop", "alloc.spills_per_kop",
	"durable.appends_per_kop", "supervisor.resync_ops_per_reload",
}

func TestDeterministicCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's systems twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			small := *w
			small.traceN = 3000
			var runs [2]*traceResult
			for r := range runs {
				res, err := runTrace(&small, 7, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("traced run failed %d oracle checks: %v", res.failed, res.notes)
				}
				runs[r] = res
			}
			for _, name := range deterministicCounters {
				a, b := runs[0].metrics[name], runs[1].metrics[name]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: %v then %v for the same seed", name, a, b)
				}
			}
			if runs[0].metrics["vm.insns_per_op"] == 0 {
				t.Error("vm.insns_per_op is 0: the bare extension ran nothing")
			}
		})
	}
}

func TestOracleRejectsCorruptReply(t *testing.T) {
	w, err := findWorkload("kv-read")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newKVSystem(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.fe.Close()
	want := preloadValue(5)
	reply, _, _ := sys.fe.Execute(0, w.proto.encodeGet(kvKey(5)))
	if !w.proto.getReply(reply, want) {
		t.Fatalf("oracle rejects a correct reply %q", reply)
	}
	bad := append([]byte(nil), reply...)
	bad[len(bad)-1] ^= 1
	if w.proto.getReply(bad, want) {
		t.Fatal("oracle accepts a reply with a flipped value byte")
	}
	if w.proto.getReply(reply[:len(reply)-1], want) {
		t.Fatal("oracle accepts a truncated reply")
	}
	if w.proto.getReply(reply, nil) {
		t.Fatal("oracle accepts a value where it expects a miss")
	}

	v := preloadValue(9)
	good := append(append([]byte("$64\r\n"), v...), '\r', '\n')
	if !redisProto.getReply(good, v) || !redisProto.setReply([]byte("+OK\r\n")) {
		t.Fatal("RESP oracle rejects a correct reply")
	}
	good[7] ^= 1
	if redisProto.getReply(good, v) || redisProto.setReply([]byte("+OK\r")) {
		t.Fatal("RESP oracle accepts a corrupted reply")
	}
	if memcachedProto.setReply([]byte("E")) {
		t.Fatal("oracle accepts an error reply to a SET")
	}
}

func TestDSOracleRejectsWrongValue(t *testing.T) {
	in := genDS(3, 200, 512)
	sys, err := newDSSystem(in)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.o.Close()
	for i := range in.op {
		if in.op[i] != dsLookup {
			continue
		}
		if dsOp(sys.o, in, i, in.firstPass[i]+1) {
			t.Fatal("ds oracle accepts a wrong lookup value")
		}
		if !dsOp(sys.o, in, i, in.firstPass[i]) {
			t.Fatal("ds oracle rejects the right lookup value")
		}
		return
	}
	t.Fatal("no lookup in the generated ops")
}

func TestSLOReplayHandQueue(t *testing.T) {
	us := int32(1000)
	svc := []int32{10 * us, 10 * us, 10 * us, 10 * us}
	gaps := []float32{1, 1, 1, 1}
	// 100k/s: arrivals every 10 µs, no waiting, every response 10 µs.
	if !sloMeets(svc, nil, gaps, 1e5, 10_000) {
		t.Error("10 µs responses miss a 10 µs limit")
	}
	// 200k/s: arrivals at 5, 10, 15, 20 µs finish at 15, 25, 35, 45 µs:
	// responses 10, 15, 20 and 25 µs; the p99 is the largest.
	if sloMeets(svc, nil, gaps, 2e5, 24_999) || !sloMeets(svc, nil, gaps, 2e5, 25_000) {
		t.Error("200k/s: p99 must be exactly 25 µs")
	}
	// A 30 µs lifecycle call before request 2 at 100k/s: requests 0 and 1
	// finish at 20 and 30 µs, the call holds the server to 60 µs, request
	// 2 (arrived 30 µs) finishes at 70 µs and request 3 (40 µs) at 80 µs:
	// responses 10, 10, 40, 40 µs.
	life := []lifeEvent{{at: 2, ns: 30_000}}
	if sloMeets(svc, life, gaps, 1e5, 39_999) || !sloMeets(svc, life, gaps, 1e5, 40_000) {
		t.Error("lifecycle call: p99 must be exactly 40 µs")
	}
}

func TestSLORateMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	svc := make([]int32, 20_000)
	for i := range svc {
		svc[i] = int32(2_000 + r.Intn(6_000))
		if r.Intn(1000) == 0 {
			svc[i] = 400_000 // a stall
		}
	}
	gaps := sloGaps(9, len(svc))
	prev := true
	for rate := 1e3; rate <= 4e5; rate *= 1.1 {
		ok := sloMeets(svc, nil, gaps, rate, sloLimitNs)
		if ok && !prev {
			t.Fatalf("limit met at %.0f/s after being missed at a lower rate", rate)
		}
		prev = ok
	}
	best := sloRate(svc, nil, gaps, sloLimitNs)
	if best <= 0 || !sloMeets(svc, nil, gaps, best, sloLimitNs) || sloMeets(svc, nil, gaps, best*1.001, sloLimitNs) {
		t.Fatalf("sloRate %.1f/s is not the boundary", best)
	}
}

func TestNetOfPreemption(t *testing.T) {
	lat := []int32{1_000, 900_000, 1_000, 1_000}
	marks := []cpuMark{
		{at: 0, wall: 0, cpu: 0},
		{at: 4, wall: 903_000, cpu: 103_000}, // 800 µs off the CPU
	}
	svc, _ := netOfPreemption(lat, nil, marks)
	if svc[1] != 100_000 || svc[0] != 1_000 || lat[1] != 900_000 {
		t.Fatalf("got %v (input %v): the 800 µs off-CPU gap must come off the stalled request only", svc, lat)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric tables
// in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, wl := range doc.Workloads {
		if _, err := findWorkload(wl.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got []m, want [][2]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetricList)
	check("per_layer", doc.PerLayer, layerMetricList)
}

func TestHostFactorScaling(t *testing.T) {
	res := &e2eResult{
		attempted: 4,
		lat:       []int32{4_000, 4_000, 8_000, 8_000},
		marks:     []cpuMark{{at: 0}, {at: 4, wall: 24_000, cpu: 24_000}},
		wall:      24_000 + 2*calibNominal,
		calib:     []time.Duration{2 * calibNominal, 2 * calibNominal, 2 * calibNominal},
		calibTime: 2 * calibNominal,
		setups:    []time.Duration{time.Second},
	}
	m, raw, h := e2eMetrics(res, 1)
	if h != 2 {
		t.Fatalf("host factor %v, want 2", h)
	}
	if raw["ops_per_s"] != 4/24e-6 || m["ops_per_s"] != 2*raw["ops_per_s"] {
		t.Errorf("ops_per_s raw %v normalized %v: the calibration time must be left out and the rate doubled", raw["ops_per_s"], m["ops_per_s"])
	}
	if raw["lat_p99_us"] != 8 || m["lat_p99_us"] != 4 || m["setup_s"] != 0.5 {
		t.Errorf("times must halve at host factor 2: %v", m)
	}
	if want := sloRate(res.lat, nil, sloGaps(1, 4), sloLimitNs) / 1e3; m["slo_rate_kops"] != want || raw["slo_rate_kops"] != want {
		t.Errorf("slo_rate_kops %v (raw %v), want the unscaled replay %v", m["slo_rate_kops"], raw["slo_rate_kops"], want)
	}
}
