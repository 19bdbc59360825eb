package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesMetrics keeps
// the two in step); it also holds each end-to-end metric's bound.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them; README.md
// gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"success_share", "ratio", "higher"},
	{"quality_f1", "ratio", "higher"},
}

// perLayer are the single-layer metrics of the traced run. A workload
// that never enters a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"webeco.new_s", "s", "lower"},
	{"webeco.tick_s", "s", "lower"},
	{"crawler.seed_s", "s", "lower"},
	{"crawler.poll_s", "s", "lower"},
	{"crawler.dispatch_s", "s", "lower"},
	{"crawler.click_s", "s", "lower"},
	{"crawler.merge_s", "s", "lower"},
	{"crawler.loop_self_s", "s", "lower"},
	{"crawler.ticks", "count", "lower"},
	{"crawler.batch_containers_mean", "count", "higher"},
	{"crawler.productive_tick_ratio", "ratio", "higher"},
	{"crawler.records", "count", "higher"},
	{"crawler.visit_retries", "count", "lower"},
	{"crawler.poll_failures", "count", "lower"},
	{"crawler.breaker_fast_fails", "count", "lower"},
	{"vnet.requests", "count", "lower"},
	{"vnet.transport_errors", "count", "lower"},
	{"chaos.faults", "count", "lower"},
	{"httpx.retries", "count", "lower"},
	{"httpx.retry_after_waits", "count", "lower"},
	{"push.send_retries", "count", "lower"},
	{"browser.notifications_shown", "count", "higher"},
	{"browser.notifications_clicked", "count", "higher"},
	{"browser.redirect_hops_sum", "count", "lower"},
	{"core.pipeline_s", "s", "lower"},
	{"core.filter_s", "s", "lower"},
	{"core.featurize_s", "s", "lower"},
	{"core.label_s", "s", "lower"},
	{"core.propagate_s", "s", "lower"},
	{"core.meta_s", "s", "lower"},
	{"core.tables_s", "s", "lower"},
	{"label.precision", "ratio", "higher"},
	{"label.recall", "ratio", "higher"},
	{"cluster.distance_matrix_s", "s", "lower"},
	{"cluster.linkage_s", "s", "lower"},
	{"cluster.blocks_s", "s", "lower"},
	{"cluster.block_linkage_s", "s", "lower"},
	{"cluster.cut_s", "s", "lower"},
	{"cluster.exact_pairs", "count", "lower"},
	{"cluster.exact_pair_ratio", "ratio", "lower"},
	{"cluster.sweep_memo_hits", "count", "higher"},
	{"cluster.sweep_blocks_rescored", "count", "lower"},
	{"incr.add_p50_us", "us", "lower"},
	{"incr.add_tail_us", "us", "lower"},
	{"incr.add_busy_s", "s", "lower"},
	{"incr.queue_wait_s", "s", "lower"},
	{"incr.arrival_p50_ms", "ms", "lower"},
	{"incr.arrival_tail_ms", "ms", "lower"},
	{"incr.generator_lag_s", "s", "lower"},
	{"incr.recluster_p50_ms", "ms", "lower"},
	{"incr.recluster_busy_s", "s", "lower"},
	{"incr.blocks_reused_ratio", "ratio", "higher"},
	{"incr.assigned_existing_ratio", "ratio", "higher"},
	{"incr.sweep_memo_hits", "count", "higher"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_s", "s", "lower"},
	{"go.alloc_bytes", "bytes", "lower"},
	{"trace_overhead_s", "s", "lower"},
}
