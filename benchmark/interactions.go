package main

import "strings"

// interaction says which end-to-end metric, on which workload, a change to a
// per-layer metric should move. It is written down before anything is
// measured; README.md carries the same table with the reasons and the
// predicted non-effects. BENCHMARK.json cannot hold it, because its entries
// have a fixed set of keys.
type interaction struct {
	// prefix selects per-layer metrics by name; the longest match wins.
	prefix   string
	metric   string
	workload string
}

var interactions = []interaction{
	{"tpch.gen_s", "setup_s", "tpch_mem"},
	{"tpch.plan_us", "query_ms_geomean", "tpch_mem"},
	{"core.", "query_ms_geomean", "tpch_mem"},
	{"core.q1_ms.p2", "queries_per_s", "serve_disk_warm"},
	{"core.compaction_", "query_ms_p95", "htap_disk"},
	{"primitives.", "query_ms_geomean", "tpch_mem"},
	{"columnbm.save_mb_s", "setup_s", "scan_disk_cold"},
	{"columnbm.attach_ms", "cold_attach_ms", "scan_disk_cold"},
	{"columnbm.cold_scan_mb_s", "scan_gb_s", "scan_disk_cold"},
	{"columnbm.warm_scan_mb_s", "scan_gb_s", "serve_disk_warm"},
	{"columnbm.scan_ns_per_val.", "scan_gb_s", "scan_disk_cold"},
	{"columnbm.decoded_bytes_per_query", "query_ms_p50", "scan_disk_cold"},
	{"columnbm.skipped_bytes_ratio", "query_ms_p50", "scan_disk_cold"},
	{"columnbm.pool_hit_ratio", "scan_gb_s", "scan_disk_cold"},
	{"columnbm.dcache_hit_ratio", "queries_per_s", "serve_disk_warm"},
	{"columnbm.dcache_evictions", "scan_gb_s", "scan_disk_cold"},
	{"columnbm.wal_appends_per_sync", "ops_per_s", "htap_disk"},
	{"columnbm.fsyncs_per_1k_rows", "ops_per_s", "htap_disk"},
	{"columnbm.retried_reads", "query_ms_p95", "scan_disk_cold"},
	{"columnbm.checksum_failures", "query_ms_p95", "scan_disk_cold"},
	{"columnbm.disk_bytes_per_raw_byte", "setup_s", "scan_disk_cold"},
	{"colstore.reader_ns_per_val", "query_ms_geomean", "tpch_mem"},
	{"colstore.locator_gather_ns_per_val", "query_ms_geomean", "scan_disk_cold"},
	{"delta.insert_ns_per_row", "ops_per_s", "htap_disk"},
	{"delta.q6_delta_ms", "query_ms_p50", "htap_disk"},
	{"sched.", "query_ms_p95", "serve_disk_warm"},
	// The baseline engines are references: the correctness gate calls them
	// outside every timed interval, so they move no end-to-end metric.
	{"mil.", "", ""},
	{"volcano.", "", ""},
	{"trace.overhead_ratio", "query_ms_geomean", "tpch_mem"},
	{"htap.", "ops_per_s", "htap_disk"},
	{"htap.written_bytes_per_user_byte", "query_ms_p95", "htap_disk"},
}

// interactionOf returns the entry with the longest prefix of name, or nil.
func interactionOf(name string) *interaction {
	var best *interaction
	for i := range interactions {
		in := &interactions[i]
		if strings.HasPrefix(name, in.prefix) && (best == nil || len(in.prefix) > len(best.prefix)) {
			best = in
		}
	}
	return best
}
