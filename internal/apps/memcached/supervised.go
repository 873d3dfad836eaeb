package memcached

import (
	"kflex"
	"kflex/internal/apps/supervised"
	"kflex/internal/durable"
	"kflex/internal/kernel"
	"kflex/internal/supervisor"
)

// Supervised is the KFlex Memcached deployment routed through the
// lifecycle supervisor (see package supervised): a fault burst that
// degrades the extension no longer forfeits the offload permanently.
// While the circuit is open the server answers from the authoritative
// store; once the supervisor reloads the extension it resyncs the store
// into the heap and traffic returns to the XDP path.
type Supervised struct{ *supervised.FrontEnd }

// codec is the Memcached wire protocol at XDP.
var codec = supervised.Codec{
	Hook:      kernel.HookXDP,
	Served:    kernel.XDPTx,
	Parse:     ParseRequest,
	EncodeSet: EncodeSet,
	Miss:      func(reply []byte) bool { return len(reply) == 1 && reply[0] == 'M' },
	Handle:    HandleKV,
}

// NewSupervised builds the supervised deployment. tuning configures the
// circuit breaker (zero values take supervisor defaults). With
// cfg.Durable set, the authoritative store is the WAL-backed durable
// store (pass its RecoveryInfo through NewSupervisedRecovered to surface
// recovery metrics in the supervisor stats).
func NewSupervised(cfg Config, servers int, tuning supervisor.Tuning) (*Supervised, error) {
	return NewSupervisedRecovered(cfg, servers, tuning, nil)
}

// NewSupervisedRecovered is NewSupervised for a recovered durable store:
// info (from durable.Open) is folded into the initial generation's
// InitReport so Supervisor.Stats reports the WAL replay that rebuilt the
// store.
func NewSupervisedRecovered(cfg Config, servers int, tuning supervisor.Tuning, info *durable.RecoveryInfo) (*Supervised, error) {
	rt := kflex.NewRuntime()
	RegisterHelpers(rt)
	var store KV = cfg.Durable
	if cfg.Durable == nil {
		store = NewStore()
	}
	if cfg.Preload {
		preloadStore(store, cfg.ValueSize)
	}
	fe, err := supervised.New(supervisor.Config{
		Runtime: rt,
		Spec: kflex.Spec{
			Name:            "kflex-memcached",
			Insns:           kflexProgram(false),
			Mode:            kflex.ModeKFlex,
			HeapSize:        cfg.HeapSize,
			NumCPUs:         cfg.Slots,
			FaultPlan:       cfg.FaultPlan,
			LocalCancel:     cfg.LocalCancel,
			CancelThreshold: cfg.CancelThreshold,
		},
		NumCPUs: servers,
		// The deployment is single-driver (one request at a time per cpu
		// slot), so the next generation can safely adopt a cleanly
		// audited heap and resync only the dirty set.
		WarmReload: !cfg.ColdReload,
		Tuning:     tuning,
	}, codec, store, info)
	if err != nil {
		return nil, err
	}
	return &Supervised{fe}, nil
}
