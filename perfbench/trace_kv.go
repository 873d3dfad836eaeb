package main

import (
	"fmt"
	"time"

	"kflex"
	"kflex/internal/alloc"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/redis"
	"kflex/internal/durable"
	"kflex/internal/netsim"
	"kflex/internal/supervisor"
)

// feCounts reads a front end's offload counters.
func feCounts(fe frontEnd) (offloaded, fallbacks uint64) {
	switch f := fe.(type) {
	case *memcached.Supervised:
		return f.Offloaded, f.Fallbacks
	case *redis.Supervised:
		return f.Offloaded, f.Fallbacks
	}
	return 0, 0
}

// traceKV is runTrace for the kv workloads. Layers, bottom-up: the bare
// extension (kflex.Handle.Run), the supervisor (Supervisor.Run, with the
// workload's lifecycle calls), the authoritative store (Set on a fresh
// store, SET stream only) and the front end (Execute, with lifecycle
// calls), plus an untraced Execute replay as the overhead control.
func traceKV(w *workloadDef, seed int64, tr *tracer) (*traceResult, []layerRow, error) {
	in := genKV(w.proto, seed, w.ring, w.getPct, w.keySpace, preloaded)
	n := w.traceN
	out := map[string]float64{}
	res := &traceResult{attempted: n, metrics: out}
	fail := func(format string, args ...any) {
		res.failed++
		if len(res.notes) < 8 {
			res.notes = append(res.notes, fmt.Sprintf(format, args...))
		}
	}
	stages := map[string][]float64{}
	var loads, preloads []float64
	build := func(label string) (*kvSystem, error) {
		_, done := tr.phase("setup " + label)
		sys, err := newKVSystem(w, seed)
		done()
		if err != nil {
			return nil, err
		}
		var total time.Duration
		for _, st := range sys.fe.Supervisor().Extension().Pipeline().Stages {
			stages[st.Name] = append(stages[st.Name], ms(st.Duration))
			total += st.Duration
		}
		loads = append(loads, ms(total))
		preloads = append(preloads, (sys.setup - total).Seconds())
		return sys, nil
	}
	// Every layer gets its own instance, all built before the replay.
	sysA, err := build("kflex")
	if err != nil {
		return nil, nil, err
	}
	sysB, err := build("supervisor")
	if err != nil {
		return nil, nil, err
	}
	sysU, err := build("untraced")
	if err != nil {
		return nil, nil, err
	}
	sysD, err := build("frontend")
	if err != nil {
		return nil, nil, err
	}
	_, done := tr.phase("setup store")
	var store memcached.KV
	var dstore *durable.Store
	if w.durable {
		dstore, _, err = durable.Open(newCountingDir(), kvWriteOptions)
		if err != nil {
			return nil, nil, err
		}
		defer dstore.Close()
		store = dstore
	} else {
		store = memcached.NewStore()
	}
	for k := uint32(1); k <= preloaded; k++ {
		store.Set(kvKey(k), preloadValue(k))
	}
	done()
	settle()

	// Layer kflex: Handle.Run on the bare extension. Every input reaches
	// the extension, so the vm, kernel-helper and allocator counts are
	// exact per input.
	ext := sysA.fe.Supervisor().Extension()
	h := ext.Handle(0)
	allocBefore := ext.Alloc().Stats()
	var vmst kflex.Stats
	durA := make([]int64, n)
	var pktA netsim.Packet
	var ctxA []byte
	stepA := func(ph int32, i int) {
		frame := in.frames[i]
		ctxA = w.hookCtx(frame, ctxA)
		newPacket(&pktA, frame)
		t0 := tr.now()
		r, err := h.Run(&pktA, ctxA)
		t1 := tr.now()
		tr.add(spRun, ph, i, t0, t1)
		durA[i] = t1 - t0
		vmst.Add(r.Stats)
		switch {
		case err != nil || r.Cancelled != kflex.CancelNone || !w.served(r.Ret):
			fail("kflex: input %d not served (ret %d, err %v)", i, r.Ret, err)
		case !checkReply(w, in, i, 0, pktA.Reply):
			fail("kflex: input %d: reply differs from the oracle", i)
		}
	}

	// Layer supervisor: Supervisor.Run, with the lifecycle calls at the
	// same inputs as the front end's.
	supB := sysB.fe.Supervisor()
	durB := make([]int64, n)
	ranB := make([]bool, n)
	var pktB netsim.Packet
	var ctxB []byte
	stepB := func(ph int32, i int) {
		if w.churn > 0 && i > 0 && i%w.churn == 0 {
			k := i/w.churn - 1
			t0 := tr.now()
			err := sysB.lifecycle(k)
			tr.add(lifeSpan(k), ph, -1, t0, tr.now())
			if err != nil {
				fail("supervisor: %v", err)
			}
		}
		frame := in.frames[i]
		ctxB = w.hookCtx(frame, ctxB)
		newPacket(&pktB, frame)
		t0 := tr.now()
		_, err := supB.Run(0, &pktB, ctxB)
		t1 := tr.now()
		tr.add(spSupervisor, ph, i, t0, t1)
		durB[i] = t1 - t0
		ranB[i] = err == nil
		if sysB.clock != nil {
			sysB.clock.tick()
		}
	}

	// Layer store: Set on a fresh store with the same preload, SET
	// stream only.
	durC := make([]int64, n)
	var setC, snapC []int64
	var userBytes int64
	stepC := func(ph int32, i int) {
		if !in.set[i] {
			return
		}
		key, value := kvKey(in.keys[i]), in.values[i]
		userBytes += int64(len(key) + len(value))
		var snaps uint64
		if dstore != nil {
			snaps = dstore.Metrics().Snapshots
		}
		t0 := tr.now()
		store.Set(key, value)
		t1 := tr.now()
		tr.add(spStore, ph, i, t0, t1)
		durC[i] = t1 - t0
		setC = append(setC, t1-t0)
		if dstore != nil && dstore.Metrics().Snapshots != snaps {
			tr.add(spSnapshot, ph, i, t0, t1)
			snapC = append(snapC, t1-t0)
		}
	}

	// Control: the same front-end replay without spans.
	stepU := func(i int) {
		if w.churn > 0 && i > 0 && i%w.churn == 0 {
			if err := sysU.lifecycle(i/w.churn - 1); err != nil {
				fail("untraced: %v", err)
			}
		}
		reply, _, _ := sysU.fe.Execute(0, in.frames[i])
		if !checkReply(w, in, i, 0, reply) {
			fail("untraced: input %d: reply differs from the oracle", i)
		}
		if sysU.clock != nil {
			sysU.clock.tick()
		}
	}

	// Layer apps: the front end's Execute, with lifecycle calls.
	supD := sysD.fe.Supervisor()
	out["supervisor.init_resync_ops"] = float64(supD.Stats().LastInit.ResyncOps)
	off0, fb0 := feCounts(sysD.fe)
	st0 := supD.Stats()
	var dm0 durable.Metrics
	var bytes0 int64
	if w.durable {
		dm0, bytes0 = sysD.store.Metrics(), sysD.dir.bytes
	}
	durD := make([]int64, n)
	var migr, quar, reload []int64
	awaitReload := false
	stepD := func(ph int32, i int) {
		if w.churn > 0 && i > 0 && i%w.churn == 0 {
			k := i/w.churn - 1
			t0 := tr.now()
			err := sysD.lifecycle(k)
			t1 := tr.now()
			tr.add(lifeSpan(k), ph, -1, t0, t1)
			if err != nil {
				fail("frontend: %v", err)
			} else if k%2 == 0 {
				migr = append(migr, t1-t0)
			} else {
				quar = append(quar, t1-t0)
				awaitReload = true
			}
		}
		t0 := tr.now()
		reply, _, _ := sysD.fe.Execute(0, in.frames[i])
		t1 := tr.now()
		tr.add(spExecute, ph, i, t0, t1)
		durD[i] = t1 - t0
		if !checkReply(w, in, i, 0, reply) {
			fail("frontend: input %d: reply differs from the oracle", i)
		}
		if sysD.clock != nil {
			sysD.clock.tick()
		}
		if awaitReload && supD.State() != supervisor.Quarantined {
			awaitReload = false
			tr.add(spReload, ph, i, t0, t1)
			reload = append(reload, t1-t0)
		}
	}

	// Replay chunk by chunk, each chunk bottom-up through the layers, so
	// drift in the host's speed lands on every layer alike.
	var md memDelta
	var untraced, traced int64
	for c := 0; c < n; c += traceChunk {
		e := min(c+traceChunk, n)
		for _, l := range []struct {
			label string
			step  func(ph int32, i int)
		}{{"kflex", stepA}, {"supervisor", stepB}, {"store", stepC}} {
			ph, done := tr.phase(fmt.Sprintf("replay %s [%d,%d)", l.label, c, e))
			for i := c; i < e; i++ {
				l.step(ph, i)
			}
			done()
		}
		md.start()
		u0 := tr.now()
		for i := c; i < e; i++ {
			stepU(i)
		}
		u1 := tr.now()
		md.stop()
		tr.add(spUntracedReplay, -1, -1, u0, u1)
		untraced += u1 - u0
		ph, done := tr.phase(fmt.Sprintf("replay frontend [%d,%d)", c, e))
		for i := c; i < e; i++ {
			stepD(ph, i)
		}
		done()
		traced += tr.spans[ph].end - tr.spans[ph].start
	}
	allocAfter := ext.Alloc().Stats()
	sysA.fe.Close()
	sysB.fe.Close()
	sysU.fe.Close()

	off1, fb1 := feCounts(sysD.fe)
	st1 := supD.Stats()
	if hp := supD.Extension().Heap(); hp != nil {
		out["heap.populated_pages"] = float64(hp.PopulatedPages())
		out["heap.occupancy_pct"] = 100 * float64(hp.PopulatedPages()) * 4096 / float64(hp.Size())
	}
	if bad := checkFinal(w, sysD.fe, in, n); bad > 0 {
		fail("frontend: final state: %d keys differ from the oracle", bad)
	}
	storeCounts := ""
	if w.durable {
		dm1, bytes1 := sysD.store.Metrics(), sysD.dir.bytes
		appends, syncs := dm1.Appends-dm0.Appends, dm1.Syncs-dm0.Syncs
		out["durable.appends_per_kop"] = 1000 * float64(appends) / float64(n)
		out["durable.syncs_per_kop"] = 1000 * float64(syncs) / float64(n)
		out["durable.snapshots"] = float64(dm1.Snapshots - dm0.Snapshots)
		out["durable.compacted_segs"] = float64(dm1.CompactedSegs - dm0.CompactedSegs)
		out["durable.write_amp"] = float64(bytes1-bytes0) / float64(userBytes)
		storeCounts = fmt.Sprintf("appends=%d syncs=%d snapshots=%d compacted_segs=%d device_bytes=%d user_bytes=%d",
			appends, syncs, dm1.Snapshots-dm0.Snapshots, dm1.CompactedSegs-dm0.CompactedSegs, bytes1-bytes0, userBytes)
		r0 := tr.now()
		took, info, bad, err := checkRecovered(w, sysD, in, n)
		tr.add(spRecover, -1, -1, r0, r0+int64(took))
		if err != nil {
			return nil, nil, err
		}
		if bad > 0 {
			fail("recovery: %d keys differ from the oracle", bad)
		}
		out["durable.recover_ms"] = ms(took)
		out["durable.replayed_records"] = float64(info.Replayed)
		out["durable.set_p50_us"] = quantile64(setC, 0.50) / 1e3
		out["durable.set_p99_us"] = quantile64(setC, 0.99) / 1e3
		out["durable.snapshot_ms"] = quantile64(snapC, 0.50) / 1e6
	} else {
		sysD.fe.Close()
	}

	// Metrics.
	stageMetrics(out, stages)
	out["kflex.load_ms"] = median(loads)
	out["apps.preload_s"] = median(preloads)
	sortedA := append([]int64(nil), durA...)
	out["kflex.run_p50_ns"] = quantile64(sortedA, 0.50)
	out["kflex.run_p99_ns"] = quantile64(sortedA, 0.99)
	vmMetrics(out, vmst, sum64(durA), n)
	allocMetrics(out, allocBefore, allocAfter, n)

	var admit, admitN, supSelf, feSelf int64
	for i := 0; i < n; i++ {
		if ranB[i] {
			admit += durB[i] - durA[i]
			admitN++
			supSelf += durB[i] - durA[i]
		} else {
			supSelf += durB[i]
		}
		feSelf += durD[i] - durB[i] - durC[i]
	}
	if admitN > 0 {
		out["supervisor.admit_ns"] = float64(admit) / float64(admitN)
	}
	out["apps.frontend_ns"] = float64(feSelf) / float64(n)
	out["apps.offload_ratio"] = float64(off1-off0) / float64(n)
	out["apps.fallback_ratio"] = float64(fb1-fb0) / float64(n)

	reloads, migrations := st1.Reloads-st0.Reloads, st1.Migrations-st0.Migrations
	if w.churn > 0 {
		out["supervisor.migrate_p50_us"] = quantile64(migr, 0.50) / 1e3
		out["supervisor.migrate_p99_us"] = quantile64(migr, 0.99) / 1e3
		out["supervisor.quarantine_us"] = quantile64(quar, 0.50) / 1e3
		out["supervisor.reload_us"] = quantile64(reload, 0.50) / 1e3
		if gens := reloads + migrations; gens > 0 {
			out["supervisor.resync_ops_per_reload"] = float64(st1.ResyncOps-st0.ResyncOps) / float64(gens)
		}
		if reloads > 0 {
			out["supervisor.warm_reload_ratio"] = float64(st1.WarmReloads-st0.WarmReloads) / float64(reloads)
		}
	}
	out["supervisor.migrations"] = float64(migrations)
	out["supervisor.migration_rollbacks"] = float64(st1.MigrationFailures - st0.MigrationFailures)
	md.metrics(out, n)
	out["trace.overhead_pct"] = 100 * float64(traced-untraced) / float64(untraced)

	rows := []layerRow{
		{layer: "kflex", calls: n, total: sum64(durA), self: sum64(durA), counts: vmCounts(vmst, allocBefore, allocAfter)},
		{layer: "supervisor", calls: n, total: sum64(durB), self: supSelf, counts: fmt.Sprintf(
			"reloads=%d warm_reloads=%d quarantines=%d migrations=%d migration_failures=%d resync_ops=%d",
			reloads, st1.WarmReloads-st0.WarmReloads, st1.Quarantines-st0.Quarantines, migrations,
			st1.MigrationFailures-st0.MigrationFailures, st1.ResyncOps-st0.ResyncOps)},
		{layer: "store", calls: len(setC), total: sum64(durC), self: sum64(durC), counts: storeCounts},
		{layer: "apps", calls: n, total: sum64(durD), self: feSelf, counts: fmt.Sprintf(
			"offloaded=%d fallbacks=%d", off1-off0, fb1-fb0)},
	}
	if w.churn > 0 {
		rows = append(rows,
			layerRow{layer: "lifecycle.migr", calls: len(migr), total: sum64(migr), self: sum64(migr)},
			layerRow{layer: "lifecycle.quar", calls: len(quar), total: sum64(quar), self: sum64(quar)},
			layerRow{layer: "lifecycle.reload", calls: len(reload), total: sum64(reload), self: sum64(reload)},
		)
	}
	return res, rows, nil
}

// lifeSpan names the k-th lifecycle call's span.
func lifeSpan(k int) uint8 {
	if k%2 == 0 {
		return spMigrate
	}
	return spQuarantine
}

// vmMetrics derives the vm and kernel per-op metrics from the summed
// Result.Stats of n inputs that took runNs on the bare extension.
func vmMetrics(out map[string]float64, st kflex.Stats, runNs int64, n int) {
	per := func(v uint64) float64 { return float64(v) / float64(n) }
	out["vm.insns_per_op"] = per(st.Insns)
	out["vm.dispatches_per_op"] = per(st.Dispatches)
	out["vm.fused_per_op"] = per(st.Fused)
	out["vm.guards_per_op"] = per(st.Guards)
	out["vm.probes_per_op"] = per(st.Probes)
	out["kernel.helper_calls_per_op"] = per(st.HelperCalls)
	if st.Insns > 0 {
		out["vm.ns_per_insn"] = float64(runNs) / float64(st.Insns)
	}
}

func allocMetrics(out map[string]float64, a, b alloc.Stats, n int) {
	perK := func(x, y uint64) float64 { return 1000 * float64(y-x) / float64(n) }
	out["alloc.allocs_per_kop"] = perK(a.Allocs, b.Allocs)
	out["alloc.frees_per_kop"] = perK(a.Frees, b.Frees)
	out["alloc.refills_per_kop"] = perK(a.Refills, b.Refills)
	out["alloc.spills_per_kop"] = perK(a.Spills, b.Spills)
}

func vmCounts(st kflex.Stats, a, b alloc.Stats) string {
	return fmt.Sprintf("insns=%d dispatches=%d fused=%d guards=%d probes=%d helper_calls=%d allocs=%d frees=%d refills=%d spills=%d",
		st.Insns, st.Dispatches, st.Fused, st.Guards, st.Probes, st.HelperCalls,
		b.Allocs-a.Allocs, b.Frees-a.Frees, b.Refills-a.Refills, b.Spills-a.Spills)
}
