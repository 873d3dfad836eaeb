// Package supervised is the one supervised key-value front end shared by
// the Memcached (XDP) and Redis (sk_skb) offloads. Both run the shared
// kvprog extension under the lifecycle supervisor and fall back to an
// authoritative user-space store on an offload miss (§5); they differ
// only in their wire protocol, which a Codec describes.
//
// The store is authoritative: every offloaded SET is written through to
// it, so no acknowledged write is lost across a quarantine/reload cycle,
// and an extension GET miss double-checks it (the entry may have landed
// while the circuit was open).
//
// Delete contract: the front end issues no deletes, but its store may
// lose a key behind its back (durable.Store.Delete). That is honoured for
// keys in the dirty set: a warm resync keeps a key marked while the store
// lacks it, and a GET on a marked key is answered from the store, so a
// deleted key reads as a miss. A cold resync rebuilds the heap from the
// store, which drops every deleted key.
package supervised

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"kflex/internal/durable"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/supervisor"
)

// Op is a parsed request's operation.
type Op int

// Request ops a Codec recognises.
const (
	OpNone Op = iota
	OpGet
	OpSet
)

// initFrame is the out-of-band request both protocols' parse helpers map
// to the program's table-initialisation op.
var initFrame = []byte{'i'}

// Codec is a wire protocol: everything the front end needs to know about
// frames and replies.
type Codec struct {
	// Hook is the attachment point; the hook context carries the frame
	// length in its first word.
	Hook *kernel.Hook
	// Served is the hook return code meaning "handled at the hook".
	Served uint64
	// Parse decodes a request into op, key and value (nil for GETs); op
	// is OpNone for anything else.
	Parse func(frame []byte) (op Op, key, value []byte)
	// EncodeSet builds the SET frame a resync replays.
	EncodeSet func(key, value []byte) []byte
	// Miss recognises the extension's GET-miss reply.
	Miss func(reply []byte) bool
	// Handle serves one frame from a store in user space.
	Handle func(kv KV, frame, reply []byte) []byte
}

// FrontEnd serves requests on the supervised extension and falls back to
// the authoritative store while the circuit is open. Like the other
// deployments it drives one request at a time per instance; the per-cpu
// concurrency contract lives in the supervisor itself.
type FrontEnd struct {
	codec Codec
	sup   *supervisor.Supervisor
	store KV
	pkt   netsim.Packet
	ctx   []byte
	reply []byte
	// dirty tracks keys whose authoritative value may differ from the
	// extension heap's copy: SETs acknowledged on the fallback path while
	// the circuit was open (or the run was cancelled mid-flight). A warm
	// reload replays exactly this set — the O(delta) resync contract —
	// and GETs of a marked key are answered from the store.
	//
	// mu guards dirty: a live migration's adoption resync runs on the
	// Migrate caller's goroutine while Execute keeps acknowledging
	// fallback SETs on the serving goroutine. resync snapshots and
	// unmarks under mu, then replays outside it; a key re-dirtied after
	// its snapshot keeps its fresh mark, so the stale replayed value is
	// still corrected on the next GET.
	mu    sync.Mutex
	dirty map[string]struct{}
	// recovery is the durable store's RecoveryInfo, reported through the
	// first generation's InitReport and then consumed.
	recovery *durable.RecoveryInfo
	// Offloaded counts requests served by the extension; Fallbacks counts
	// requests served by the store (open circuit, probe quota, cancelled
	// run, GET backfill after an extension miss, or a dirty key).
	Offloaded, Fallbacks uint64
}

// New starts the supervised extension described by sc in front of store.
// The front end supplies sc.Init and sc.Spec.Hook; sc.Spec.NumCPUs is
// raised to sc.NumCPUs and sc.Spec.HeapSize defaults to 64 MiB. recovery,
// when set, is folded into the first generation's InitReport so
// Supervisor.Stats reports the WAL replay that rebuilt the store.
func New(sc supervisor.Config, codec Codec, store KV, recovery *durable.RecoveryInfo) (*FrontEnd, error) {
	f := &FrontEnd{codec: codec, store: store, ctx: make([]byte, codec.Hook.CtxSize),
		dirty: make(map[string]struct{}), recovery: recovery}
	sc.Spec.Hook = codec.Hook
	if sc.Spec.NumCPUs < sc.NumCPUs {
		sc.Spec.NumCPUs = sc.NumCPUs
	}
	if sc.Spec.HeapSize == 0 {
		sc.Spec.HeapSize = 64 << 20
	}
	sc.Init = f.resync
	sup, err := supervisor.New(sc)
	if err != nil {
		return nil, err
	}
	f.sup = sup
	return f, nil
}

// resync initialises a generation's heap from the authoritative store, in
// sorted key order so the replay is deterministic. A cold generation
// (fresh heap) is initialised and receives every key; a warm generation
// adopted the previous heap, so only the dirty set is replayed.
func (f *FrontEnd) resync(g supervisor.Generation) (supervisor.InitReport, error) {
	var rep supervisor.InitReport
	if f.recovery != nil {
		rep.ReplayedRecords = f.recovery.Replayed
		rep.SnapshotLoaded = f.recovery.SnapshotLoaded != ""
		f.recovery = nil
	}
	// Execute owns f.pkt and f.ctx and may run concurrently during a live
	// migration, so the replay uses its own.
	var pkt netsim.Packet
	ctx := make([]byte, f.codec.Hook.CtxSize)
	run := func(frame []byte) error {
		pkt.Data, pkt.Reply = frame, pkt.Reply[:0]
		binary.LittleEndian.PutUint32(ctx, uint32(len(frame)))
		res, err := g.Handles[0].Run(&pkt, ctx)
		if err != nil {
			return err
		}
		if res.Ret != f.codec.Served {
			return fmt.Errorf("supervised: %s resync frame returned %d", f.codec.Hook.Name, res.Ret)
		}
		return nil
	}
	if g.Warm {
		// Snapshot keys and their authoritative values and unmark them
		// under the lock, then replay outside it. A key the store no
		// longer holds stays marked: the adopted heap still has its old
		// value, and only the store can answer a GET for it.
		f.mu.Lock()
		keys := make([]string, 0, len(f.dirty))
		for k := range f.dirty {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		vals := make([][]byte, len(keys))
		for i, k := range keys {
			if vals[i] = f.store.Get([]byte(k)); vals[i] != nil {
				delete(f.dirty, k)
			}
		}
		f.mu.Unlock()
		for i, k := range keys {
			if vals[i] == nil {
				continue
			}
			if err := run(f.codec.EncodeSet([]byte(k), vals[i])); err != nil {
				return rep, err
			}
			rep.ResyncOps++
		}
		return rep, nil
	}
	rep.FullResync = true
	if err := run(initFrame); err != nil {
		return rep, err
	}
	err := f.store.Range(func(key, value []byte) error {
		if err := run(f.codec.EncodeSet(key, value)); err != nil {
			return err
		}
		rep.ResyncOps++
		return nil
	})
	if err != nil {
		return rep, err
	}
	f.mu.Lock()
	f.dirty = make(map[string]struct{})
	f.mu.Unlock()
	return rep, nil
}

// FallbackSet acknowledges one SET directly on the authoritative store,
// as if it had been served on the user-space fallback path: the value is
// durable and the key joins the dirty set the next warm resync replays.
// Migration benchmarks and chaos tests use it to build a dirty delta of
// an exact size without driving traffic.
func (f *FrontEnd) FallbackSet(key, value []byte) {
	f.store.Set(key, value)
	f.mu.Lock()
	f.dirty[string(key)] = struct{}{}
	f.mu.Unlock()
}

// Execute serves one frame: on the extension when the circuit admits it,
// from the store otherwise. It reports the reply, the modeled extension
// cost (0 on fallback), and whether the request was offloaded.
func (f *FrontEnd) Execute(cpu int, frame []byte) (reply []byte, extNs float64, offloaded bool) {
	f.pkt.Data = frame
	f.pkt.Reply = f.pkt.Reply[:0]
	binary.LittleEndian.PutUint32(f.ctx, uint32(len(frame)))
	res, err := f.sup.Run(cpu, &f.pkt, f.ctx)
	op, key, value := f.codec.Parse(frame)
	if err != nil || res.Ret != f.codec.Served {
		// Open circuit, probe quota, or a cancelled run: the store serves
		// the request — the paper's offload-miss path (§5). A SET
		// acknowledged here is invisible to the (stale) heap, so it joins
		// the dirty set the next warm resync will replay. It is marked
		// after the store write: a migration's resync that unmarks it in
		// between has read the new value, and a later one finds the mark.
		f.Fallbacks++
		f.reply = f.codec.Handle(f.store, frame, f.reply)
		if op == OpSet {
			f.mu.Lock()
			f.dirty[string(key)] = struct{}{}
			f.mu.Unlock()
		}
		return f.reply, 0, false
	}
	switch op {
	case OpSet:
		// Write-through: the store mirrors every offloaded SET so a
		// reloaded generation can be resynced from it. The heap now holds
		// the same value, so the key is no longer dirty.
		f.store.Set(key, value)
		f.mu.Lock()
		delete(f.dirty, string(key))
		f.mu.Unlock()
	case OpGet:
		f.mu.Lock()
		_, stale := f.dirty[string(key)]
		f.mu.Unlock()
		// A dirty key's heap copy is stale (or the store deleted it); an
		// extension miss may be an entry that landed while the circuit was
		// open. Either way the store is authoritative, and its handler
		// answers a deleted key with a miss.
		if stale || f.codec.Miss(f.pkt.Reply) && f.store.Get(key) != nil {
			f.Fallbacks++
			f.reply = f.codec.Handle(f.store, frame, f.reply)
			return f.reply, 0, false
		}
	}
	f.Offloaded++
	return f.pkt.Reply, netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls), true
}

// Supervisor exposes the lifecycle supervisor (state, trace, audits).
func (f *FrontEnd) Supervisor() *supervisor.Supervisor { return f.sup }

// Close retires the live generation.
func (f *FrontEnd) Close() { f.sup.Close() }
