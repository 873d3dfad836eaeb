package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"kflex"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/redis"
	"kflex/internal/ds"
	"kflex/internal/durable"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// workloadDef is one named workload: the system it builds and the
// traffic it drives. Every field is fixed per workload; only the seed
// varies between runs.
type workloadDef struct {
	name string
	ds   bool // ds-chase: the skiplist offload instead of a kv front end

	proto    proto
	redis    bool   // RESP front end at sk_skb (memcached at XDP otherwise)
	getPct   int    // GET share of the mix, percent
	keySpace uint32 // key ids are drawn from [1, keySpace]
	durable  bool   // WAL-backed store over a MemDir device
	// churn is the lifecycle interval: before every churn-th request the
	// loop calls Migrate or Quarantine, alternating (0: no lifecycle).
	churn int

	ring   int // pre-generated requests; the measured loop cycles them
	traceN int // requests the traced run replays through every layer
}

// preloaded is the key count every kv workload's store holds before
// traffic (the front ends' own preload: key ids 1..64Ki) and the
// ds-chase element count.
const preloaded = workload.KeySpace

// Durable store tuning for kv-write. SyncEvery 1 makes every
// acknowledged SET crash-durable; at the write path's rate of about 35k
// appends a second, SnapshotEvery makes snapshot and compaction cycle
// many times per run (once during preload, then every 40k appends).
var kvWriteOptions = durable.Options{SyncEvery: 1, SnapshotEvery: 40_000}

// Virtual clock of kv-churn: one tick per request. With a 1 ms backoff
// base, a quarantine serves 5-10 requests on the fallback path before
// the request-driven warm reload, then 8 probes close the circuit —
// well inside the lifecycle interval, so every Migrate and Quarantine
// is admitted from Healthy.
const (
	churnTick    = 100 * time.Microsecond
	churnBackoff = time.Millisecond
)

// workloads; README.md gives the reason for each.
var workloads = []*workloadDef{
	// The paper's Fig. 2/3 traffic at XDP: vm, kernel helpers and
	// admission dominate; alloc, durable and lifecycle stay idle.
	{name: "kv-read", proto: memcachedProto, getPct: 90, keySpace: preloaded, ring: 1 << 18, traceN: 100_000},
	// Writes at sk_skb onto the WAL store: durable appends, snapshots
	// and the malloc path. 256Ki keys of 128 B heap nodes use about half
	// of the 64 MiB heap at most.
	{name: "kv-write", proto: redisProto, redis: true, getPct: 10, keySpace: 4 * preloaded, durable: true,
		ring: 1 << 18, traceN: 40_000},
	// Skiplist pointer chasing with full guards: the vm/heap path alone.
	{name: "ds-chase", ds: true, ring: 1 << 18, traceN: 100_000},
	// kv-read plus the supervisor lifecycle every 24 requests.
	{name: "kv-churn", proto: memcachedProto, getPct: 90, keySpace: preloaded, churn: 24, ring: 1 << 18, traceN: 100_000},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// frontEnd is the surface the benchmark drives on both supervised front
// ends (memcached.Supervised and redis.Supervised).
type frontEnd interface {
	Execute(cpu int, frame []byte) (reply []byte, extNs float64, offloaded bool)
	Supervisor() *supervisor.Supervisor
	Close()
}

// vclock is kv-churn's virtual clock, advanced once per request, so
// backoff expiry — and which requests take the fallback path — depends
// only on the request index.
type vclock struct{ t time.Time }

func (c *vclock) now() time.Time { return c.t }
func (c *vclock) tick()          { c.t = c.t.Add(churnTick) }

// kvSystem is one built kv deployment.
type kvSystem struct {
	fe    frontEnd
	store *durable.Store // kv-write's authoritative store
	dir   *countingDir   // ...and its device
	clock *vclock        // kv-churn
	setup time.Duration  // NewSupervised, including preload and resync
}

// newKVSystem builds w's deployment from scratch: its own runtime,
// store and heap, preloaded with key ids 1..64Ki and resynced into the
// extension heap.
func newKVSystem(w *workloadDef, seed int64) (*kvSystem, error) {
	sys := &kvSystem{}
	tuning := supervisor.Tuning{JitterSeed: seed}
	if w.churn > 0 {
		sys.clock = &vclock{t: time.Unix(0, 0)}
		tuning.Now = sys.clock.now
		tuning.BackoffBase = churnBackoff
	}
	start := time.Now()
	var err error
	if w.redis {
		cfg := redis.DefaultConfig(workload.Mix{GetPct: w.getPct})
		cfg.Seed = seed
		if w.durable {
			sys.dir = newCountingDir()
			sys.store, _, err = durable.Open(sys.dir, kvWriteOptions)
			if err != nil {
				return nil, fmt.Errorf("%s: open store: %w", w.name, err)
			}
			cfg.Durable = sys.store
		}
		sys.fe, err = redis.NewSupervised(cfg, 1, tuning)
	} else {
		cfg := memcached.DefaultConfig(workload.Mix{GetPct: w.getPct})
		cfg.Seed = seed
		if w.churn > 0 {
			cfg.Slots = 2 // a free slot to migrate into
		}
		sys.fe, err = memcached.NewSupervised(cfg, 1, tuning)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: build front end: %w", w.name, err)
	}
	sys.setup = time.Since(start)
	return sys, nil
}

// lifecycle performs kv-churn's k-th lifecycle call: even calls migrate
// cpu 0 to the free slot, odd calls quarantine the live generation (the
// warm reload follows on a later request once the backoff expires).
func (s *kvSystem) lifecycle(k int) error {
	sup := s.fe.Supervisor()
	if k%2 == 0 {
		free := sup.FreeSlots()
		if len(free) == 0 {
			return fmt.Errorf("lifecycle %d: no free slot (route %v)", k, sup.Route())
		}
		if _, err := sup.Migrate(0, free[0]); err != nil {
			return fmt.Errorf("lifecycle %d: %w", k, err)
		}
		return nil
	}
	if !sup.Quarantine("churn") {
		return fmt.Errorf("lifecycle %d: quarantine refused in state %v", k, sup.State())
	}
	return nil
}

// hookCtx builds the hook context the front ends pass with a frame: the
// frame length in the first word.
func (w *workloadDef) hookCtx(frame []byte, ctx []byte) []byte {
	hook := kflex.HookXDP
	if w.redis {
		hook = kflex.HookSkSkb
	}
	if ctx == nil {
		ctx = make([]byte, hook.CtxSize)
	}
	binary.LittleEndian.PutUint32(ctx, uint32(len(frame)))
	return ctx
}

// served reports whether a bare extension run served the request at the
// hook (the front ends' own test for the offload path).
func (w *workloadDef) served(ret uint64) bool {
	if w.redis {
		return ret == redis.Served
	}
	return ret == kernel.XDPTx
}

// checkFinal GETs every key id in the key space through the front end
// and compares the reply with the oracle's final state: no acknowledged
// SET may be lost. It returns the number of mismatching keys.
func checkFinal(w *workloadDef, fe frontEnd, in *kvInputs, done int) int {
	st := in.finalState(done)
	bad := 0
	for k := uint32(1); k <= w.keySpace; k++ {
		want, ok := st[k]
		if !ok && k <= in.preloaded {
			want = preloadValue(k)
		}
		reply, _, _ := fe.Execute(0, w.proto.encodeGet(kvKey(k)))
		if !w.proto.getReply(reply, want) {
			bad++
		}
	}
	return bad
}

// checkRecovered crashes kv-write's device, recovers the store with
// durable.Open, and compares it with the oracle: with SyncEvery 1 every
// acknowledged SET must survive. It returns the recovery time, the
// recovery report and the number of mismatching keys.
func checkRecovered(w *workloadDef, sys *kvSystem, in *kvInputs, done int) (time.Duration, durable.RecoveryInfo, int, error) {
	sys.fe.Close()
	sys.dir.Crash()
	t0 := time.Now()
	st, info, err := durable.Open(sys.dir, kvWriteOptions)
	took := time.Since(t0)
	if err != nil {
		return took, info, 0, fmt.Errorf("recover: %w", err)
	}
	defer st.Close()
	final := in.finalState(done)
	bad, keys := 0, 0
	for k := uint32(1); k <= w.keySpace; k++ {
		want, ok := final[k]
		if !ok && k <= in.preloaded {
			want = preloadValue(k)
		}
		if want != nil {
			keys++
		}
		got := st.Get(kvKey(k))
		if (want == nil) != (got == nil) || string(want) != string(got) {
			bad++
		}
	}
	if st.Len() != keys {
		bad++
	}
	return took, info, bad, nil
}

// dsSystem is one built skiplist offload, preloaded.
type dsSystem struct {
	o       *ds.Offloaded
	load    time.Duration // ds.Load: pipeline plus the init op
	preload time.Duration
	setup   time.Duration
}

// newDSSystem loads the skiplist (full guards: PerfMode off) into a
// fresh runtime and inserts the 64Ki preload elements in the seeded
// order.
func newDSSystem(in *dsInputs) (*dsSystem, error) {
	start := time.Now()
	o, err := ds.Load(kflex.NewRuntime(), ds.KindSkipList, false)
	if err != nil {
		return nil, fmt.Errorf("ds-chase: load: %w", err)
	}
	loaded := time.Now()
	for _, k := range in.pre {
		if err := o.TryUpdate(k, in.preV[k-1]); err != nil {
			o.Close()
			return nil, fmt.Errorf("ds-chase: preload: %w", err)
		}
	}
	end := time.Now()
	return &dsSystem{o: o, load: loaded.Sub(start), preload: end.Sub(loaded), setup: end.Sub(start)}, nil
}

// dsOp runs ds-chase op i through the ds package's public surface and
// reports whether the result matched the oracle.
func dsOp(o *ds.Offloaded, in *dsInputs, i int, want uint64) (ok bool) {
	k := in.key[i]
	switch in.op[i] {
	case dsLookup:
		v, found := o.Lookup(k)
		return found && v == want
	case dsUpdate:
		return o.TryUpdate(k, in.val[i]) == nil
	default:
		if !o.Delete(k) {
			return false
		}
		return o.TryUpdate(k, in.val[i]) == nil
	}
}

// dsCtx encodes one op into the bench hook context (op, key, value,
// out at byte offsets 0, 8, 16, 24) for a bare Handle.Run.
func dsCtx(ctx []byte, op, key, val uint64) {
	binary.LittleEndian.PutUint64(ctx[0:], op)
	binary.LittleEndian.PutUint64(ctx[8:], key)
	binary.LittleEndian.PutUint64(ctx[16:], val)
	binary.LittleEndian.PutUint64(ctx[24:], 0)
}

// newPacket loads a frame into pkt for a bare extension run.
func newPacket(pkt *netsim.Packet, frame []byte) {
	pkt.Data = frame
	pkt.Reply = pkt.Reply[:0]
}

// countingDir is a MemDir that counts the bytes appended to its files:
// the device side of kv-write's write amplification.
type countingDir struct {
	*durable.MemDir
	bytes int64
}

func newCountingDir() *countingDir { return &countingDir{MemDir: durable.NewMemDir(nil)} }

func (d *countingDir) Create(name string) (durable.File, error) {
	f, err := d.MemDir.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: &d.bytes}, nil
}

func (d *countingDir) Open(name string) (durable.File, error) {
	f, err := d.MemDir.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: &d.bytes}, nil
}

type countingFile struct {
	durable.File
	n *int64
}

func (f *countingFile) Append(p []byte) (int, error) {
	n, err := f.File.Append(p)
	*f.n += int64(n)
	return n, err
}
