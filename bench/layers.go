package main

// layerDef names one per-layer metric of the traced run. Names are
// <module>.<metric>; every workload reports every one, 0 where the layer
// is idle (BENCHMARK.json repeats the list and a test keeps the two in
// step). The list is at 118 of the contract's 128: add none without
// dropping one.
type layerDef struct{ name, unit, better string }

var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	var out []layerDef
	better := "lower"
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerDef{n, unit, better})
		}
	}
	// higher adds metrics where more is better: hit ratios, speed-ups and
	// committers per fsync.
	higher := func(unit string, names ...string) {
		better = "higher"
		add(unit, names...)
		better = "lower"
	}
	tpchClasses := append(newTPCHScan(0, false).classes(), newTPCHJoin(0, false).classes()...)

	add("us", "sql.parse_us", "plan.plan_us", "plan.prepare_us")

	add("ns", "core.gcl_deform_ns", "core.scl_form_ns")
	add("us", "core.compile_pred_us")
	higher("ratio", "core.beecache_hit_ratio")
	add("count", "core.gcl_calls_per_op", "core.evp_calls_per_op", "core.evj_calls_per_op",
		"core.eva_calls_per_op", "core.scl_calls_per_op", "core.dict_probes_per_op")
	for _, c := range tpchClasses {
		higher("x", "core."+c+"_bee_speedup_x")
	}
	higher("x", "core.bee_speedup_geomean_x")

	add("ns", "tuple.generic_deform_ns", "tuple.generic_form_ns")

	add("ns", "heap.scan_ns_per_tuple", "heap.get_ns", "heap.insert_ns")
	add("count", "heap.pages_after_load")
	add("ratio", "heap.bytes_per_user_byte")
	add("count", "heap.dead_versions_end")

	add("ns", "buffer.get_hit_ns")
	add("us", "buffer.get_miss_us")
	higher("ratio", "buffer.hit_ratio")
	add("count", "buffer.misses_per_op", "buffer.write_backs_per_op")

	add("ns", "disk.read_page_ns")
	add("count", "disk.page_reads_per_op", "disk.page_writes_per_op")

	add("ns", "wal.append_ns")
	add("us", "wal.wait_durable_us")
	add("B", "wal.bytes_per_commit")
	add("count", "wal.appends_per_commit", "wal.fsyncs_per_commit")
	higher("count", "wal.group_commit_batch")
	add("count", "wal.flush_stalls")

	add("ns", "btree.search_ns", "btree.insert_ns", "btree.range_ns_per_key")
	add("count", "btree.searches_per_op", "btree.splits")

	add("ns", "txn.begin_commit_ns", "txn.snapshot_ns")
	add("count", "txn.conflict_retries", "txn.aborted")

	for _, c := range tpchClasses {
		add("us", "exec."+c+"_p50_us")
	}
	add("count", "exec.batch_rows_per_op", "exec.rows_returned_per_op")

	for _, c := range tpchClasses {
		add("count", "profile."+c+"_instr")
	}
	add("count", "profile.tpcc_instr_per_txn")

	for _, c := range tpccClasses {
		add("us", "engine."+c+"_p50_us", "engine."+c+"_p99_us")
	}
	for _, ci := range []int{opKVGet, opPartGet, opLiRange, opPayment} {
		add("us", "engine."+wireClasses[ci]+"_prepared_exec_us")
	}
	add("ms", "engine.checkpoint_ms")
	add("count", "engine.vacuum_runs", "engine.vacuum_reclaimed", "engine.txn_bee_fallbacks", "engine.prepared_replans")

	add("ns", "wire.frame_codec_ns", "wire.row_codec_ns")

	for _, c := range wireClasses {
		add("us", "server."+c+"_overhead_us")
	}
	add("count", "server.requests_per_op", "server.request_errors")

	add("%", "bench.trace_overhead_pct")
	return out
}
