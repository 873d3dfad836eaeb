package redis

import (
	"bytes"

	"kflex"
	"kflex/internal/apps/supervised"
	"kflex/internal/kernel"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// Supervised is the KFlex Redis deployment routed through the lifecycle
// supervisor (see package supervised). While the circuit is open,
// requests are answered by the authoritative store (the in-memory store,
// or the WAL-backed durable store when Config.Durable is set); a reload
// resyncs the store into the heap and traffic returns to the sk_skb
// offload.
type Supervised struct{ *supervised.FrontEnd }

// respNil is the RESP bulk-string miss reply.
var respNil = []byte("$-1\r\n")

// codec is the RESP wire protocol at sk_skb.
var codec = supervised.Codec{
	Hook:   kernel.HookSkSkb,
	Served: Served,
	Parse: func(frame []byte) (supervised.Op, []byte, []byte) {
		args, err := ParseCommand(frame)
		if err != nil {
			return supervised.OpNone, nil, nil
		}
		switch {
		case len(args) >= 3 && string(args[0]) == "SET":
			return supervised.OpSet, args[1], args[2]
		case len(args) >= 2 && string(args[0]) == "GET":
			return supervised.OpGet, args[1], nil
		}
		return supervised.OpNone, nil, nil
	},
	EncodeSet: func(key, value []byte) []byte { return EncodeCommand([]byte("SET"), key, value) },
	Miss:      func(reply []byte) bool { return bytes.Equal(reply, respNil) },
	Handle:    HandleRESP,
}

// NewSupervised builds the supervised deployment. tuning configures the
// circuit breaker (zero values take supervisor defaults).
func NewSupervised(cfg Config, servers int, tuning supervisor.Tuning) (*Supervised, error) {
	rt := kflex.NewRuntime()
	RegisterHelpers(rt)
	var db supervised.KV = cfg.Durable
	if cfg.Durable == nil {
		db = new(supervised.Store)
	}
	if cfg.Preload {
		preload(db)
	}
	fe, err := supervised.New(supervisor.Config{
		Runtime: rt,
		Spec: kflex.Spec{
			Name:            "kflex-redis",
			Insns:           kflexProgram(),
			Mode:            kflex.ModeKFlex,
			FaultPlan:       cfg.FaultPlan,
			LocalCancel:     cfg.LocalCancel,
			CancelThreshold: cfg.CancelThreshold,
		},
		NumCPUs: servers,
		// One request at a time per cpu slot: safe to adopt a cleanly
		// audited heap across reloads and resync only the dirty set.
		WarmReload: true,
		Tuning:     tuning,
	}, codec, db, nil)
	if err != nil {
		return nil, err
	}
	return &Supervised{fe}, nil
}

// preload fills every key of the workload's key space.
func preload(db supervised.KV) {
	for key := uint64(1); key <= workload.KeySpace; key++ {
		db.Set(workload.FormatKey(key, KeySize), workload.FormatValue(key, ValueSize))
	}
}
