package main

// e2eMetricList names the end-to-end metrics and their units, in the
// order BENCHMARK.json lists them.
var e2eMetricList = [][2]string{
	{"ops_per_s", "1/s"},
	{"lat_p99_us", "us"},
	{"slo_rate_kops", "kops"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// layerMetricList names the per-layer metrics of the traced run and
// their units, in the order BENCHMARK.json lists them.
var layerMetricList = [][2]string{
	{"verifier.verify_ms", "ms"},
	{"kie.instrument_ms", "ms"},
	{"compile.lower_ms", "ms"},
	{"kflex.link_ms", "ms"},
	{"kflex.load_ms", "ms"},
	{"apps.preload_s", "s"},
	{"ds.preload_s", "s"},
	{"supervisor.init_resync_ops", "count"},
	{"kflex.run_p50_ns", "ns"},
	{"kflex.run_p99_ns", "ns"},
	{"vm.insns_per_op", "count"},
	{"vm.dispatches_per_op", "count"},
	{"vm.fused_per_op", "count"},
	{"vm.guards_per_op", "count"},
	{"vm.probes_per_op", "count"},
	{"vm.ns_per_insn", "ns"},
	{"kernel.helper_calls_per_op", "count"},
	{"heap.populated_pages", "count"},
	{"heap.occupancy_pct", "%"},
	{"alloc.allocs_per_kop", "count"},
	{"alloc.frees_per_kop", "count"},
	{"alloc.refills_per_kop", "count"},
	{"alloc.spills_per_kop", "count"},
	{"supervisor.admit_ns", "ns"},
	{"supervisor.migrate_p50_us", "us"},
	{"supervisor.migrate_p99_us", "us"},
	{"supervisor.quarantine_us", "us"},
	{"supervisor.reload_us", "us"},
	{"supervisor.resync_ops_per_reload", "count"},
	{"supervisor.migrations", "count"},
	{"supervisor.migration_rollbacks", "count"},
	{"supervisor.warm_reload_ratio", "ratio"},
	{"durable.set_p50_us", "us"},
	{"durable.set_p99_us", "us"},
	{"durable.snapshot_ms", "ms"},
	{"durable.appends_per_kop", "count"},
	{"durable.syncs_per_kop", "count"},
	{"durable.snapshots", "count"},
	{"durable.compacted_segs", "count"},
	{"durable.write_amp", "ratio"},
	{"durable.recover_ms", "ms"},
	{"durable.replayed_records", "count"},
	{"apps.frontend_ns", "ns"},
	{"apps.offload_ratio", "ratio"},
	{"apps.fallback_ratio", "ratio"},
	{"ds.lookup_p50_ns", "ns"},
	{"ds.update_p50_ns", "ns"},
	{"ds.delete_reinsert_p50_ns", "ns"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func init() {
	for _, list := range [][][2]string{e2eMetricList, layerMetricList} {
		for _, m := range list {
			metricUnits[m[0]] = m[1]
		}
	}
}
