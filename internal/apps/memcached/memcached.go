// Package memcached implements the three Memcached deployments compared in
// the paper's §5.1 plus the co-designed variant of §5.3:
//
//   - UserSpace: the baseline server running entirely in user space, paying
//     the full kernel network stack and a context switch per request;
//   - BMC: the eBPF-based look-aside cache (NSDI'21) that serves GET hits
//     at the XDP hook but cannot offload SETs (no dynamic allocation in
//     eBPF) and falls back to user space on misses;
//   - KFlex: both GETs and SETs handled entirely at XDP, with the hash
//     table and values allocated on demand from the extension heap and
//     SETs carried over KFlex's TCP fast path;
//   - CoDesign: the KFlex server sharing its heap with a user-space
//     garbage-collection thread that scans the table every second under a
//     shared spin lock (§5.3).
//
// All four parse the same wire protocol and serve the same Zipfian
// workload; the paper's performance differences come from which kernel
// path stages each avoids and the per-request processing work, both of
// which are exercised for real here (extensions execute their verified,
// instrumented bytecode; the user-space server is timed executing native
// code).
package memcached

import (
	"math/rand"
	"time"

	"kflex"
	"kflex/internal/apps/supervised"
	"kflex/internal/durable"
	"kflex/internal/faultinject"
	"kflex/internal/kernel"
	"kflex/internal/maps"
	"kflex/internal/netsim"
	"kflex/internal/sim"
	"kflex/internal/workload"
)

// Sizes used by the evaluation (§5.1): 32 B keys; 64 B values normally,
// 32 B when BMC participates (BMC cannot store values larger than keys).
const (
	KeySize      = 32
	ValueSize    = 64
	ValueSizeBMC = 32
)

// --- Wire protocol ---------------------------------------------------------------

// EncodeGet builds a GET request frame: 'g' + key bytes.
func EncodeGet(key []byte) []byte {
	return append([]byte{'g'}, key...)
}

// EncodeSet builds a SET request frame: 's' + klen(1) + key + value.
func EncodeSet(key, value []byte) []byte {
	out := make([]byte, 0, 2+len(key)+len(value))
	out = append(out, 's', byte(len(key)))
	out = append(out, key...)
	return append(out, value...)
}

// ParseRequest decodes a frame. It returns the op, the key and the value
// (nil for GETs), or supervised.OpNone for malformed frames.
func ParseRequest(frame []byte) (op supervised.Op, key, value []byte) {
	if len(frame) < 1+KeySize {
		return supervised.OpNone, nil, nil
	}
	switch frame[0] {
	case 'g':
		return supervised.OpGet, frame[1 : 1+KeySize], nil
	case 's':
		klen := int(frame[1])
		if klen != KeySize || len(frame) < 2+klen {
			return supervised.OpNone, nil, nil
		}
		return supervised.OpSet, frame[2 : 2+klen], frame[2+klen:]
	}
	return supervised.OpNone, nil, nil
}

// --- Native store (the user-space server and the BMC fallback) --------------------

// KV is the authoritative-store contract the deployments are written
// against (the in-memory Store or the WAL-backed durable.Store).
type KV = supervised.KV

// HandleKV processes one request frame against any authoritative store
// and returns the reply.
func HandleKV(kv KV, frame []byte, reply []byte) []byte {
	op, key, value := ParseRequest(frame)
	switch op {
	case supervised.OpGet:
		v := kv.Get(key)
		if v == nil {
			return append(reply[:0], 'M')
		}
		return append(append(reply[:0], 'V'), v...)
	case supervised.OpSet:
		kv.Set(key, value)
		return append(reply[:0], 'S')
	}
	return append(reply[:0], 'E')
}

// Store is the user-space Memcached store.
type Store struct{ supervised.Store }

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Handle processes one request frame natively and returns the reply.
func (s *Store) Handle(frame []byte, reply []byte) []byte {
	return HandleKV(s, frame, reply)
}

// --- Shared harness pieces ---------------------------------------------------------

// Config parameterizes one Memcached system instance for the simulation.
type Config struct {
	Mix       workload.Mix
	ValueSize int
	Seed      int64
	Costs     netsim.PathCosts
	// Preload fills every key before measuring.
	Preload bool
	// FaultPlan attaches deterministic fault injection to the KFlex
	// variants' runtimes (chaos testing); nil in normal runs.
	FaultPlan *faultinject.Plan
	// LocalCancel scopes injected cancellations to single invocations so
	// the server survives them (§4.3).
	LocalCancel bool
	// CancelThreshold auto-unloads the extension after this many
	// cancellations; Serve then takes the user-space fallback path.
	CancelThreshold uint64
	// Interpret runs the KFlex extension on the reference interpreter
	// instead of the lowered tier (differential testing and the
	// interpreter side of the pipeline benchmark).
	Interpret bool
	// Durable, when non-nil, replaces the supervised deployment's
	// in-memory authoritative store with a WAL-backed durable store:
	// every acknowledged SET is write-ahead logged, reload resync replays
	// from it, and a process restart recovers the full store from disk.
	Durable *durable.Store
	// ColdReload disables warm heap adoption across supervisor reloads:
	// every reload links a fresh heap and re-pushes the full store. The
	// recovery benchmark uses it as the baseline the O(delta) warm path
	// is measured against.
	ColdReload bool
	// Slots sizes the extension's physical handle-slot table for the
	// supervised deployment. It defaults to the server count; declaring
	// more leaves free slots as live-migration targets
	// (supervisor.Migrate).
	Slots int
	// HeapSize overrides the supervised deployment's extension heap size
	// in bytes (default 64 MiB). Migration and fuzz tests shrink it so a
	// cutover sweep doesn't pay a 64 MiB allocation per instance.
	HeapSize uint64
}

// DefaultConfig mirrors §5.1 with 64 B values.
func DefaultConfig(mix workload.Mix) Config {
	return Config{Mix: mix, ValueSize: ValueSize, Seed: 7, Costs: netsim.DefaultCosts(), Preload: true}
}

// reqFactory deterministically produces the request stream all systems see.
type reqFactory struct {
	gen *workload.Generator
	vsz int
}

func newReqFactory(cfg Config) *reqFactory {
	return &reqFactory{gen: workload.NewGenerator(cfg.Seed, cfg.Mix), vsz: cfg.ValueSize}
}

// next builds the next request frame (client-side work, not timed).
func (f *reqFactory) next() (workload.Request, []byte) {
	req := f.gen.Next()
	key := workload.FormatKey(req.Key, KeySize)
	if req.Op == workload.OpSet {
		return req, EncodeSet(key, workload.FormatValue(req.Value, f.vsz))
	}
	return req, EncodeGet(key)
}

// --- System 1: user space ------------------------------------------------------------

// UserSpace is the baseline server.
type UserSpace struct {
	cfg   Config
	store *Store
	fac   *reqFactory
	reply []byte
}

// NewUserSpace builds and optionally preloads the baseline.
func NewUserSpace(cfg Config) *UserSpace {
	u := &UserSpace{cfg: cfg, store: NewStore(), fac: newReqFactory(cfg), reply: make([]byte, 0, 128)}
	if cfg.Preload {
		preloadStore(u.store, cfg.ValueSize)
	}
	return u
}

func preloadStore(s KV, vsz int) {
	for k := uint64(1); k <= workload.KeySpace; k++ {
		s.Set(workload.FormatKey(k, KeySize), workload.FormatValue(k, vsz))
	}
}

// Serve implements sim.System: the handler runs natively and is timed; the
// path cost is the full user-space stack (GETs over UDP, SETs over TCP,
// matching BMC's deployment model).
func (u *UserSpace) Serve(cpu int, now float64, seq uint64, rng *rand.Rand) sim.Service {
	req, frame := u.fac.next()
	t0 := time.Now()
	u.reply = u.store.Handle(frame, u.reply)
	work := float64(time.Since(t0).Nanoseconds())
	path := u.cfg.Costs.UserspaceUDP()
	if req.Op == workload.OpSet {
		path = u.cfg.Costs.UserspaceTCP()
	}
	return sim.Service{Ns: work + path}
}

// Name implements the labeled system.
func (u *UserSpace) Name() string { return "User space" }

// --- System 2: BMC ---------------------------------------------------------------------

// BMC runs the eBPF look-aside cache in front of the user-space server.
type BMC struct {
	cfg     Config
	store   *Store
	cache   *maps.LRU
	ext     *kflex.Extension
	handles []*kflex.Handle
	fac     *reqFactory
	reply   []byte
	// Hits and Misses count cache outcomes for reporting.
	Hits, Misses uint64
	// Errors counts extension invocations that failed outright; the
	// request is then served on the user-space path like a miss.
	Errors uint64
}

// BMCCacheEntries sizes the preallocated cache (BMC preallocates; it cannot
// grow, which is the paper's flexibility point).
const BMCCacheEntries = 16 << 10

// NewBMC loads the eBPF (ModeEBPF!) extension and builds the fallback path.
func NewBMC(cfg Config, servers int) (*BMC, error) {
	rt := kflex.NewRuntime()
	RegisterHelpers(rt)
	cache, err := rt.NewLRUMap(bmcCacheMapID, BMCCacheEntries, KeySize, 8+cfg.ValueSize)
	if err != nil {
		return nil, err
	}
	ext, err := rt.Load(kflex.Spec{
		Name:  "bmc",
		Insns: bmcProgram(),
		Hook:  kflex.HookXDP,
		Mode:  kflex.ModeEBPF, // BMC is plain eBPF: no heap, no KFlex runtime
	})
	if err != nil {
		return nil, err
	}
	b := &BMC{cfg: cfg, store: NewStore(), cache: cache, ext: ext, fac: newReqFactory(cfg), reply: make([]byte, 0, 128)}
	for i := 0; i < servers; i++ {
		b.handles = append(b.handles, ext.Handle(i))
	}
	if cfg.Preload {
		preloadStore(b.store, cfg.ValueSize)
	}
	return b, nil
}

// Serve implements sim.System. GETs run the eBPF program at XDP: hits are
// served there; misses fall through the full stack to user space, which
// also fills the cache (BMC's architecture). SETs bypass the cache (BMC
// cannot offload them) and invalidate the entry.
func (b *BMC) Serve(cpu int, now float64, seq uint64, rng *rand.Rand) sim.Service {
	req, frame := b.fac.next()
	h := b.handles[cpu%len(b.handles)]
	pkt := &netsim.Packet{Data: frame}
	if req.Op == workload.OpGet {
		res, err := h.Run(pkt, pkt.XDPCtx(0))
		if err != nil {
			// The hook failed outright (e.g. the extension was unloaded):
			// serve on the user-space path, exactly like a cache miss.
			b.Errors++
			b.Misses++
			t0 := time.Now()
			b.reply = b.store.Handle(frame, b.reply)
			work := float64(time.Since(t0).Nanoseconds())
			return sim.Service{Ns: work + b.cfg.Costs.UserspaceUDP()}
		}
		extNs := netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls)
		if res.Ret == kernel.XDPTx { // cache hit, served at the hook
			b.Hits++
			return sim.Service{Ns: extNs + b.cfg.Costs.XDPUDP()}
		}
		// Miss: full user-space path plus the wasted XDP pass, plus
		// the cache fill.
		b.Misses++
		t0 := time.Now()
		b.reply = b.store.Handle(frame, b.reply)
		if len(b.reply) > 1 && b.reply[0] == 'V' {
			_, key, _ := ParseRequest(frame)
			b.fillCache(key, b.reply[1:])
		}
		work := float64(time.Since(t0).Nanoseconds())
		return sim.Service{Ns: extNs + work + b.cfg.Costs.UserspaceUDP() + b.cfg.Costs.BMCMissExtra()}
	}
	// SET: user space only; invalidate the cached entry.
	t0 := time.Now()
	b.reply = b.store.Handle(frame, b.reply)
	_, key, _ := ParseRequest(frame)
	b.cache.Delete(key)
	work := float64(time.Since(t0).Nanoseconds())
	return sim.Service{Ns: work + b.cfg.Costs.UserspaceTCP()}
}

func (b *BMC) fillCache(key, value []byte) {
	entry := make([]byte, 8+b.cfg.ValueSize)
	putU64(entry, uint64(len(value)))
	copy(entry[8:], value)
	_ = b.cache.Update(key, entry)
}

// Name implements the labeled system.
func (b *BMC) Name() string { return "BMC" }

// Close releases the extension.
func (b *BMC) Close() { b.ext.Close() }

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
