package main

import (
	"encoding/binary"
	"fmt"

	"kflex"
	"kflex/internal/ds"
)

// traceDS is runTrace for ds-chase. Layers, bottom-up: the bare
// extension (kflex.Handle.Run with the bench hook context) and the ds
// package's operations (ds.Offloaded), plus an untraced ds replay as
// the overhead control.
func traceDS(w *workloadDef, seed int64, tr *tracer) (*traceResult, []layerRow, error) {
	in := genDS(seed, w.ring, preloaded)
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
	build := func(label string) (*dsSystem, error) {
		ph, done := tr.phase("setup " + label)
		sys, err := newDSSystem(in)
		done()
		if err != nil {
			return nil, err
		}
		for _, st := range sys.o.Ext.Pipeline().Stages {
			stages[st.Name] = append(stages[st.Name], ms(st.Duration))
		}
		start := tr.spans[ph].start
		tr.add(spPhase, ph, -1, start, start+int64(sys.load))
		tr.spans[len(tr.spans)-1].label = "ds.Load"
		tr.add(spPhase, ph, -1, start+int64(sys.load), start+int64(sys.setup))
		tr.spans[len(tr.spans)-1].label = "ds.preload"
		loads = append(loads, ms(sys.load))
		preloads = append(preloads, sys.preload.Seconds())
		return sys, nil
	}

	sysA, err := build("kflex")
	if err != nil {
		return nil, nil, err
	}
	sysU, err := build("untraced")
	if err != nil {
		return nil, nil, err
	}
	sysE, err := build("ds")
	if err != nil {
		return nil, nil, err
	}
	settle()

	// Layer kflex: Handle.Run on the bare extension, one or two runs
	// (delete, then reinsert) per input.
	h := sysA.o.Ext.Handle(0)
	ctx := make([]byte, kflex.HookBench.CtxSize)
	allocBefore := sysA.o.Ext.Alloc().Stats()
	var vmst kflex.Stats
	durA := make([]int64, n)
	run := func(op, key, val uint64) (uint64, bool) {
		dsCtx(ctx, op, key, val)
		r, err := h.Run(nil, ctx)
		vmst.Add(r.Stats)
		return r.Ret, err == nil && r.Cancelled == kflex.CancelNone
	}
	stepA := func(ph int32, i int) {
		k, v := in.key[i], in.val[i]
		var ok bool
		t0 := tr.now()
		switch in.op[i] {
		case dsLookup:
			var ret uint64
			ret, ok = run(ds.OpLookup, k, 0)
			ok = ok && ret == ds.RetFound && binary.LittleEndian.Uint64(ctx[24:]) == in.firstPass[i]
		case dsUpdate:
			var ret uint64
			ret, ok = run(ds.OpUpdate, k, v)
			ok = ok && ret != ds.RetOOM
		default:
			ret, ok1 := run(ds.OpDelete, k, 0)
			ret2, ok2 := run(ds.OpUpdate, k, v)
			ok = ok1 && ok2 && ret == ds.RetFound && ret2 != ds.RetOOM
		}
		t1 := tr.now()
		tr.add(spRun, ph, i, t0, t1)
		durA[i] = t1 - t0
		if !ok {
			fail("kflex: input %d differs from the oracle", i)
		}
	}

	// Layer ds: the offload's public operations.
	durE := make([]int64, n)
	byOp := make([][]int64, 3)
	stepE := func(ph int32, i int) {
		t0 := tr.now()
		ok := dsOp(sysE.o, in, i, in.firstPass[i])
		t1 := tr.now()
		tr.add(spDSOp, ph, i, t0, t1)
		durE[i] = t1 - t0
		byOp[in.op[i]] = append(byOp[in.op[i]], t1-t0)
		if !ok {
			fail("ds: input %d differs from the oracle", i)
		}
	}

	var md memDelta
	var untraced, traced int64
	for c := 0; c < n; c += traceChunk {
		e := min(c+traceChunk, n)
		ph, done := tr.phase(fmt.Sprintf("replay kflex [%d,%d)", c, e))
		for i := c; i < e; i++ {
			stepA(ph, i)
		}
		done()
		md.start()
		u0 := tr.now()
		for i := c; i < e; i++ {
			if !dsOp(sysU.o, in, i, in.firstPass[i]) {
				fail("untraced: input %d differs from the oracle", i)
			}
		}
		u1 := tr.now()
		md.stop()
		tr.add(spUntracedReplay, -1, -1, u0, u1)
		untraced += u1 - u0
		ph, done = tr.phase(fmt.Sprintf("replay ds [%d,%d)", c, e))
		for i := c; i < e; i++ {
			stepE(ph, i)
		}
		done()
		traced += tr.spans[ph].end - tr.spans[ph].start
	}
	allocAfter := sysA.o.Ext.Alloc().Stats()
	hp := sysA.o.Ext.Heap()
	out["heap.populated_pages"] = float64(hp.PopulatedPages())
	out["heap.occupancy_pct"] = 100 * float64(hp.PopulatedPages()) * 4096 / float64(hp.Size())
	sysA.o.Close()
	sysU.o.Close()
	sysE.o.Close()

	stageMetrics(out, stages)
	out["kflex.load_ms"] = median(loads)
	out["ds.preload_s"] = median(preloads)
	sortedA := append([]int64(nil), durA...)
	out["kflex.run_p50_ns"] = quantile64(sortedA, 0.50)
	out["kflex.run_p99_ns"] = quantile64(sortedA, 0.99)
	vmMetrics(out, vmst, sum64(durA), n)
	allocMetrics(out, allocBefore, allocAfter, n)
	out["ds.lookup_p50_ns"] = quantile64(byOp[dsLookup], 0.50)
	out["ds.update_p50_ns"] = quantile64(byOp[dsUpdate], 0.50)
	out["ds.delete_reinsert_p50_ns"] = quantile64(byOp[dsDeleteReinsert], 0.50)
	md.metrics(out, n)
	out["trace.overhead_pct"] = 100 * float64(traced-untraced) / float64(untraced)

	rows := []layerRow{
		{layer: "kflex", calls: n, total: sum64(durA), self: sum64(durA), counts: vmCounts(vmst, allocBefore, allocAfter)},
		{layer: "ds", calls: n, total: sum64(durE), self: sum64(durE) - sum64(durA), counts: fmt.Sprintf(
			"lookups=%d updates=%d delete_reinserts=%d", len(byOp[dsLookup]), len(byOp[dsUpdate]), len(byOp[dsDeleteReinsert]))},
	}
	return res, rows, nil
}
