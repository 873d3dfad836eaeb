package main

import (
	"bytes"
	"math/rand"

	"kflex/internal/apps/memcached"
	"kflex/internal/apps/redis"
	"kflex/internal/workload"
)

// proto is one front end's wire format: how the benchmark encodes a
// request frame and which reply the oracle accepts for it.
type proto struct {
	encodeGet func(key []byte) []byte
	encodeSet func(key, value []byte) []byte
	// setValue returns the value bytes inside an encoded SET frame.
	setValue func(frame []byte) []byte
	// getReply reports whether reply answers a GET whose oracle value is
	// value (nil: the key was never acknowledged).
	getReply func(reply, value []byte) bool
	setReply func(reply []byte) bool
}

// memcachedProto is the XDP front end's binary protocol.
var memcachedProto = proto{
	encodeGet: memcached.EncodeGet,
	encodeSet: memcached.EncodeSet,
	setValue:  func(frame []byte) []byte { _, _, v := memcached.ParseRequest(frame); return v },
	getReply: func(reply, value []byte) bool {
		if value == nil {
			return len(reply) == 1 && reply[0] == 'M'
		}
		return len(reply) == 1+len(value) && reply[0] == 'V' && bytes.Equal(reply[1:], value)
	},
	setReply: func(reply []byte) bool { return len(reply) == 1 && reply[0] == 'S' },
}

// redisProto is the sk_skb front end's RESP protocol.
var redisProto = proto{
	encodeGet: func(key []byte) []byte { return redis.EncodeCommand([]byte("GET"), key) },
	encodeSet: func(key, value []byte) []byte { return redis.EncodeCommand([]byte("SET"), key, value) },
	setValue: func(frame []byte) []byte {
		args, err := redis.ParseCommand(frame)
		if err != nil || len(args) < 3 {
			return nil
		}
		return args[2]
	},
	getReply: func(reply, value []byte) bool {
		if value == nil {
			return string(reply) == "$-1\r\n"
		}
		// "$64\r\n" + value + "\r\n" for the benchmark's 64 B values.
		const head = "$64\r\n"
		return len(value) == 64 && len(reply) == len(head)+len(value)+2 &&
			string(reply[:len(head)]) == head && bytes.Equal(reply[len(head):len(head)+len(value)], value) &&
			string(reply[len(reply)-2:]) == "\r\n"
	},
	setReply: func(reply []byte) bool { return string(reply) == "+OK\r\n" },
}

// valueSize is the value size of every kv workload (§5: 64 B values).
const valueSize = memcached.ValueSize

// kvKey renders key id k as the front ends' fixed-width 32 B key.
func kvKey(k uint32) []byte { return workload.FormatKey(uint64(k), memcached.KeySize) }

// preloadValue is the value the front ends' own preload stores under key
// id k (workload.FormatValue seeded by the key id).
func preloadValue(k uint32) []byte { return workload.FormatValue(uint64(k), valueSize) }

// kvInputs is a kv workload's generated request ring and its oracle.
// The measured loop cycles through the ring; the oracle knows the reply
// every position must get on the first pass and on every later pass.
type kvInputs struct {
	frames [][]byte
	keys   []uint32 // key id of each frame
	set    []bool   // frame is a SET
	// values[j] is the value SET frame j carries (nil for GETs).
	values [][]byte
	// firstPass and laterPass give, for every GET position, the source of
	// the value the oracle expects: -1 a miss, 0 the key's preload value,
	// j+1 the value of SET frame j.
	firstPass, laterPass []int32
	preloaded            uint32 // keys 1..preloaded hold their preload value
}

// genKV draws n requests from seed: a getPct:100-getPct GET:SET mix with
// Zipf 0.99 key ids over [1, keySpace] (scrambled, so popular keys spread
// over the whole space) and per-SET value seeds.
func genKV(p proto, seed int64, n int, getPct int, keySpace, preload uint32) *kvInputs {
	r := rand.New(rand.NewSource(seed))
	z := workload.NewZipf(r, uint64(keySpace), 0.99, true)
	in := &kvInputs{
		frames: make([][]byte, n), keys: make([]uint32, n),
		set: make([]bool, n), values: make([][]byte, n),
		preloaded: preload,
	}
	for i := 0; i < n; i++ {
		k := uint32(z.Next()) + 1
		in.keys[i] = k
		if r.Intn(100) >= getPct {
			in.set[i] = true
			in.frames[i] = p.encodeSet(kvKey(k), workload.FormatValue(r.Uint64(), valueSize))
			in.values[i] = p.setValue(in.frames[i])
		} else {
			in.frames[i] = p.encodeGet(kvKey(k))
		}
	}
	state := make(map[uint32]int32)
	in.firstPass = in.expect(state)
	in.laterPass = in.expect(state)
	return in
}

// expect walks the ring once from state (key id → value source, absent
// meaning preload-or-miss), returning each GET's expected source and
// leaving state at the end of the pass. A pass applies the same SETs
// every time, so the state after the first pass is a fixed point and
// the second walk is valid for every later pass.
func (in *kvInputs) expect(state map[uint32]int32) []int32 {
	out := make([]int32, len(in.frames))
	for i, k := range in.keys {
		if in.set[i] {
			state[k] = int32(i) + 1
			continue
		}
		if src, ok := state[k]; ok {
			out[i] = src
		} else if k <= in.preloaded {
			out[i] = 0
		} else {
			out[i] = -1
		}
	}
	return out
}

// expected returns the value the oracle expects for GET position i on
// the given pass (nil: miss).
func (in *kvInputs) expected(i int, pass int) []byte {
	src := in.firstPass[i]
	if pass > 0 {
		src = in.laterPass[i]
	}
	switch {
	case src < 0:
		return nil
	case src == 0:
		return preloadValue(in.keys[i])
	}
	return in.values[src-1]
}

// checkReply is the kv oracle: whether reply answers ring position i on
// the given pass.
func checkReply(w *workloadDef, in *kvInputs, i, pass int, reply []byte) bool {
	if in.set[i] {
		return w.proto.setReply(reply)
	}
	return w.proto.getReply(reply, in.expected(i, pass))
}

// finalState returns the oracle's acknowledged value for every key after
// done requests of the ring: key id → value (absent: preload value or
// never written).
func (in *kvInputs) finalState(done int) map[uint32][]byte {
	st := make(map[uint32][]byte)
	n := len(in.frames)
	if done > n {
		// Every pass writes the same SETs; the last full pass plus the
		// partial one decide the state.
		for i := 0; i < n; i++ {
			if in.set[i] {
				st[in.keys[i]] = in.values[i]
			}
		}
		done %= n
	}
	for i := 0; i < done; i++ {
		if in.set[i] {
			st[in.keys[i]] = in.values[i]
		}
	}
	return st
}

// ds-chase operation kinds.
const (
	dsLookup = iota
	dsUpdate
	dsDeleteReinsert
)

// dsInputs is ds-chase's generated op ring and its oracle.
type dsInputs struct {
	op   []uint8
	key  []uint64
	val  []uint64 // update / reinsert value
	pre  []uint64 // preload insertion order (a seeded permutation)
	preV []uint64 // preload value of key k at preV[k-1]
	// firstPass and laterPass are each lookup's expected value. The key
	// set never shrinks (every delete is followed by its reinsert), so
	// every lookup hits.
	firstPass, laterPass []uint64
}

// genDS draws n ops from seed over elements keyed 1..elems: 80% lookups,
// 10% updates, 10% delete-then-reinsert pairs, keys Zipf 0.99.
func genDS(seed int64, n int, elems uint64) *dsInputs {
	r := rand.New(rand.NewSource(seed))
	in := &dsInputs{
		op: make([]uint8, n), key: make([]uint64, n), val: make([]uint64, n),
		pre: make([]uint64, elems), preV: make([]uint64, elems),
	}
	for i, k := range r.Perm(int(elems)) {
		in.pre[i] = uint64(k) + 1
	}
	for i := range in.preV {
		in.preV[i] = r.Uint64()
	}
	z := workload.NewZipf(r, elems, 0.99, true)
	for i := 0; i < n; i++ {
		in.key[i] = z.Next() + 1
		switch c := r.Intn(100); {
		case c < 80:
			in.op[i] = dsLookup
		case c < 90:
			in.op[i] = dsUpdate
			in.val[i] = r.Uint64()
		default:
			in.op[i] = dsDeleteReinsert
			in.val[i] = r.Uint64()
		}
	}
	state := make(map[uint64]uint64)
	in.firstPass = in.expect(state)
	in.laterPass = in.expect(state)
	return in
}

func (in *dsInputs) expect(state map[uint64]uint64) []uint64 {
	out := make([]uint64, len(in.op))
	for i, k := range in.key {
		if in.op[i] != dsLookup {
			state[k] = in.val[i]
			continue
		}
		if v, ok := state[k]; ok {
			out[i] = v
		} else {
			out[i] = in.preV[k-1]
		}
	}
	return out
}
