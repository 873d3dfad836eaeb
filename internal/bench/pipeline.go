package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"kflex"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/redis"
	"kflex/internal/workload"
)

// The pipeline experiment compares the two execution tiers the staged
// compiler produces — the reference interpreter and the lowered pre-decoded
// form (§4.2's JIT stage) — on the two application offloads, and reports the
// static compilation picture alongside the dynamic counters. Its JSON output
// (BENCH_pipeline.json) is the repository's record that lowering pays.

// PipelineStage is one Load stage in the JSON report.
type PipelineStage struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"duration_ns"`
	Cached     bool   `json:"cached"`
	Out        int    `json:"out"`
}

// PipelineTier is one app × tier measurement.
type PipelineTier struct {
	Tier      string  `json:"tier"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// InsnsPerOp counts retired source-semantics instructions; identical
	// across tiers by the differential-equivalence contract.
	InsnsPerOp float64 `json:"insns_per_op"`
	// DispatchesPerOp counts dispatch-loop iterations. The interpreter
	// dispatches once per instruction, so its value equals InsnsPerOp; the
	// lowered tier retires fused superinstructions in one dispatch.
	DispatchesPerOp  float64 `json:"dispatches_per_op"`
	FusedPerOp       float64 `json:"fused_per_op"`
	GuardsPerOp      float64 `json:"guards_per_op"`
	HelperCallsPerOp float64 `json:"helper_calls_per_op"`
}

// PipelineApp is the per-application section of the report.
type PipelineApp struct {
	App string `json:"app"`
	Mix string `json:"mix"`

	// Static compilation picture.
	GuardsEmitted    int `json:"guards_emitted"`
	GuardsElided     int `json:"guards_elided"`
	SrcInsns         int `json:"src_insns"`
	LoweredInsns     int `json:"lowered_insns"`
	FusedGuardLoad   int `json:"fused_guard_load"`
	FusedGuardStore  int `json:"fused_guard_store"`
	FusedProbeBranch int `json:"fused_probe_branch"`
	FusedMovALU      int `json:"fused_mov_alu"`

	Stages []PipelineStage `json:"stages"`
	Tiers  []PipelineTier  `json:"tiers"`

	// LoweredSpeedup is lowered ops/sec over interpreter ops/sec.
	LoweredSpeedup float64 `json:"lowered_speedup"`
	// DispatchReductionPct is how many dispatch-loop iterations fusion
	// removed relative to the interpreter.
	DispatchReductionPct float64 `json:"dispatch_reduction_pct"`
}

// PipelineReport is the full BENCH_pipeline.json document.
type PipelineReport struct {
	Quick bool          `json:"quick"`
	Apps  []PipelineApp `json:"apps"`
}

// pipelineSystem is the slice of the two app offloads the experiment needs.
type pipelineSystem interface {
	Execute(cpu int, frame []byte) ([]byte, float64, error)
	WorkStats() kflex.Stats
	ResetWork()
	Ext() *kflex.Extension
	Close()
}

// pipelineAppDef describes how to build one app and its request frames.
type pipelineAppDef struct {
	name string
	load func(interpret bool) (pipelineSystem, error)
	// setFrame and getFrame render wire frames for preload and measurement.
	setFrame func(key, val uint64) []byte
	getFrame func(key uint64) []byte
}

func pipelineApps() []pipelineAppDef {
	mcCfg := func(interpret bool) memcached.Config {
		cfg := memcached.DefaultConfig(workload.Mix90)
		cfg.Preload = false // the experiment preloads a bounded key range itself
		cfg.Interpret = interpret
		return cfg
	}
	rdCfg := func(interpret bool) redis.Config {
		cfg := redis.DefaultConfig(workload.Mix90)
		cfg.Preload = false
		cfg.Interpret = interpret
		return cfg
	}
	return []pipelineAppDef{
		{
			name: "memcached",
			load: func(interpret bool) (pipelineSystem, error) {
				return memcached.NewKFlex(mcCfg(interpret), 1, false)
			},
			setFrame: func(key, val uint64) []byte {
				return memcached.EncodeSet(
					workload.FormatKey(key, memcached.KeySize),
					workload.FormatValue(val, memcached.ValueSize))
			},
			getFrame: func(key uint64) []byte {
				return memcached.EncodeGet(workload.FormatKey(key, memcached.KeySize))
			},
		},
		{
			name: "redis",
			load: func(interpret bool) (pipelineSystem, error) {
				return redis.NewKFlex(rdCfg(interpret), 1)
			},
			setFrame: func(key, val uint64) []byte {
				return redis.EncodeCommand([]byte("SET"),
					workload.FormatKey(key, redis.KeySize),
					workload.FormatValue(val, redis.ValueSize))
			},
			getFrame: func(key uint64) []byte {
				return redis.EncodeCommand([]byte("GET"),
					workload.FormatKey(key, redis.KeySize))
			},
		},
	}
}

func (o Options) pipelineOps() int {
	if o.Quick {
		return 2_000
	}
	return 20_000
}

func (o Options) pipelinePreload() uint64 {
	if o.Quick {
		return 4 << 10
	}
	return workload.KeySpace
}

// Pipeline measures both tiers on both apps and returns the report.
func Pipeline(o Options) (*PipelineReport, error) {
	ops := o.pipelineOps()
	preN := o.pipelinePreload()
	rep := &PipelineReport{Quick: o.Quick}
	for _, app := range pipelineApps() {
		// One deterministic frame stream shared by both tiers.
		gen := workload.NewGenerator(31, workload.Mix90)
		frames := make([][]byte, 0, ops)
		for i := 0; i < ops; i++ {
			req := gen.Next()
			if req.Op == workload.OpSet {
				frames = append(frames, app.setFrame(req.Key, req.Value))
			} else {
				frames = append(frames, app.getFrame(req.Key))
			}
		}
		out := PipelineApp{App: app.name, Mix: workload.Mix90.String()}
		var tiers [2]PipelineTier
		for i, tier := range []string{kflex.TierInterpreter, kflex.TierLowered} {
			sys, err := app.load(tier == kflex.TierInterpreter)
			if err != nil {
				return nil, fmt.Errorf("pipeline: %s/%s: %w", app.name, tier, err)
			}
			for key := uint64(1); key <= preN; key++ {
				if _, _, err := sys.Execute(0, app.setFrame(key, key)); err != nil {
					sys.Close()
					return nil, fmt.Errorf("pipeline: %s/%s: preload: %w", app.name, tier, err)
				}
			}
			sys.ResetWork()
			t0 := time.Now()
			for _, frame := range frames {
				if _, _, err := sys.Execute(0, frame); err != nil {
					sys.Close()
					return nil, fmt.Errorf("pipeline: %s/%s: %w", app.name, tier, err)
				}
			}
			wall := time.Since(t0).Seconds()
			w := sys.WorkStats()
			t := PipelineTier{
				Tier:             tier,
				Ops:              ops,
				OpsPerSec:        float64(ops) / wall,
				InsnsPerOp:       float64(w.Insns) / float64(ops),
				DispatchesPerOp:  float64(w.Dispatches) / float64(ops),
				FusedPerOp:       float64(w.Fused) / float64(ops),
				GuardsPerOp:      float64(w.Guards) / float64(ops),
				HelperCallsPerOp: float64(w.HelperCalls) / float64(ops),
			}
			if tier == kflex.TierInterpreter {
				// The interpreter's loop dispatches every instruction.
				t.DispatchesPerOp = t.InsnsPerOp
			}
			tiers[i] = t
			if tier == kflex.TierLowered {
				krep := sys.Ext().Report()
				out.GuardsEmitted = krep.ReadGuards + krep.WriteGuards
				out.GuardsElided = krep.ElidedGuards
				if m, ok := sys.Ext().LoweredMetrics(); ok {
					out.SrcInsns = m.SrcInsns
					out.LoweredInsns = m.LoweredInsns
					out.FusedGuardLoad = m.FusedGuardLoad
					out.FusedGuardStore = m.FusedGuardStore
					out.FusedProbeBranch = m.FusedProbeBranch
					out.FusedMovALU = m.FusedMovALU
				}
				for _, s := range sys.Ext().Pipeline().Stages {
					out.Stages = append(out.Stages, PipelineStage{
						Name: s.Name, DurationNs: s.Duration.Nanoseconds(),
						Cached: s.Cached, Out: s.Out,
					})
				}
			}
			sys.Close()
		}
		out.Tiers = tiers[:]
		if tiers[0].OpsPerSec > 0 {
			out.LoweredSpeedup = tiers[1].OpsPerSec / tiers[0].OpsPerSec
		}
		if tiers[0].DispatchesPerOp > 0 {
			out.DispatchReductionPct = 100 * (1 - tiers[1].DispatchesPerOp/tiers[0].DispatchesPerOp)
		}
		rep.Apps = append(rep.Apps, out)
	}
	return rep, nil
}

// RunPipeline executes the experiment, prints the human-readable summary,
// and writes BENCH_pipeline.json when Options.JSONPath is set.
func RunPipeline(o Options) error {
	rep, err := Pipeline(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.Out, "Pipeline: interpreter vs lowered pre-decoded tier (Mix 90:10)")
	for _, app := range rep.Apps {
		fmt.Fprintf(o.Out, "\n%s: %d src insns -> %d lowered (guard+load %d, guard+store %d, probe+branch %d, mov+alu %d fused); %d guards emitted, %d elided\n",
			app.App, app.SrcInsns, app.LoweredInsns,
			app.FusedGuardLoad, app.FusedGuardStore, app.FusedProbeBranch, app.FusedMovALU,
			app.GuardsEmitted, app.GuardsElided)
		fmt.Fprintf(o.Out, "%-14s %14s %14s %14s %12s %12s\n",
			"tier", "ops/sec", "insns/op", "dispatch/op", "fused/op", "guards/op")
		for _, t := range app.Tiers {
			fmt.Fprintf(o.Out, "%-14s %14.0f %14.1f %14.1f %12.1f %12.1f\n",
				t.Tier, t.OpsPerSec, t.InsnsPerOp, t.DispatchesPerOp, t.FusedPerOp, t.GuardsPerOp)
		}
		fmt.Fprintf(o.Out, "lowered speedup %.2fx, dispatch reduction %.1f%%\n",
			app.LoweredSpeedup, app.DispatchReductionPct)
	}
	if o.JSONPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.JSONPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "\nwrote %s\n", o.JSONPath)
	}
	return nil
}
