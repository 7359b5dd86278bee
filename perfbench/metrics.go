package main

// metricDef names one metric the benchmark reports, with its unit and
// which direction is better. For a per-layer metric, moves says which
// end-to-end metric it should move and on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd is every metric a --trace 0 run reports in its JSON line, on
// every workload; BENCHMARK.json bounds each. "cached" is the time to a
// finished campaign's report without re-running it; "query" is an
// aggregate query over a finished campaign's result store. See README.md
// for what each means on the campaign workloads and on service.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "injections_per_cpu_s", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "cached_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower"},
}

// printedOnly are end-to-end metrics a --trace 0 run prints but leaves
// out of its JSON line. Wall time over tens of milliseconds or more, and
// the tails of short operations, move with the CPU time a hypervisor
// steals from the guest far more than any bound could allow (see
// README.md); "report" is the time from starting a fresh campaign to
// holding its report bytes.
var printedOnly = []metricDef{
	{Name: "injections_per_s", Unit: "1/s", Better: "higher"},
	{Name: "report_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "report_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cached_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cached_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower"},
}

const (
	onCampaigns = "injections_per_* on legacy-grid, replay-shared, replay-mc"
	onReplay    = "injections_per_* and peak_rss_mb on replay-shared; zero on legacy-grid, small on replay-mc"
	onLegacy    = "injections_per_* on legacy-grid; zero on the replay workloads"
	onSim       = "injections_per_* on replay-mc and legacy-grid"
	onStore     = "query_* and cached_* on every workload; report_* on service"
)

// perLayer is every metric a --trace 1 run reports, on every workload;
// a layer a workload does not use reports 0.
var perLayer = []metricDef{
	{"campaign.profile_s", "s", "lower", onCampaigns + " (largest on replay-mc)"},
	{"campaign.execute_s", "s", "lower", onCampaigns},
	{"campaign.aggregate_s", "s", "lower", onCampaigns},
	{"campaign.cell_p50_ms", "ms", "lower", onCampaigns},
	{"campaign.cell_max_ms", "ms", "lower", onCampaigns},
	{"engine.pool_busy_frac", "frac", "higher", "injections_per_s on legacy-grid and replay-mc; flat on replay-shared"},

	{"crash.record_s", "s", "lower", onReplay},
	{"crash.capture_s", "s", "lower", onReplay},
	{"crash.capture_calls", "count", "lower", onReplay},
	{"crash.version_skips", "count", "higher", onReplay},
	{"crash.dedup_s", "s", "lower", onReplay},
	{"crash.equal_calls", "count", "lower", onReplay},
	{"crash.classes", "count", "lower", onReplay},
	{"crash.points_per_class", "count", "higher", onReplay},
	{"crash.restore_s", "s", "lower", onReplay},
	{"crash.restore_calls", "count", "lower", onReplay},

	{"crash.machine_build_s", "s", "lower", onLegacy},
	{"crash.prefix_s", "s", "lower", onLegacy},
	{"crash.prefix_ops", "count", "lower", onLegacy},
	{"crash.overlay_s", "s", "lower", onLegacy + " except replay-shared's torn half"},

	{"workload.prepare_s", "s", "lower", "injections_per_* on legacy-grid"},
	{"workload.recover_s", "s", "lower", "injections_per_* on replay-mc and legacy-grid"},
	{"workload.resume_s", "s", "lower", "injections_per_* on replay-mc (suffix) and legacy-grid"},
	{"workload.resume_ops", "count", "lower", "injections_per_* on replay-mc and legacy-grid"},
	{"workload.verify_s", "s", "lower", "injections_per_* on replay-mc and legacy-grid"},

	{"cache.accesses", "count", "lower", onSim},
	{"cache.line_misses", "count", "lower", onSim},
	{"cache.writebacks", "count", "lower", onSim},
	{"cache.flushes", "count", "lower", onSim},
	{"sim.accesses_per_s", "1/s", "higher", onSim},

	{"resultstore.write_s", "s", "lower", onStore},
	{"resultstore.bytes", "B", "lower", onStore},
	{"resultstore.open_s", "s", "lower", onStore},
	{"resultstore.rows_per_s", "1/s", "higher", onStore},
	{"resultstore.aggregate_s", "s", "lower", onStore},
	{"report.encode_s", "s", "lower", onStore},
	{"report.bytes", "B", "lower", onStore},

	{"adccd.submit_ms", "ms", "lower", "cached_* on service"},
	{"adccd.queue_ms", "ms", "lower", "report_* on service"},
	{"adccd.run_ms", "ms", "lower", "report_* and injections_per_* on service"},
	{"adccd.report_ms", "ms", "lower", "cached_* and report_* on service"},
	{"adccd.store_ms", "ms", "lower", "report_* on service"},
	{"adccd.query_ms", "ms", "lower", "query_* on service"},
	{"adccd.events_per_job", "count", "lower", "report_* on service"},
	{"adccd.restart_s", "s", "lower", "cached_* on service (restart reads the disk cache)"},
	{"adccd.state_mb", "MB", "lower", "setup_s and adccd.restart_s on service"},
	{"adccd.dedupe_ratio", "frac", "higher", "cached_* on service"},

	{"go.alloc_mb", "MB", "lower", "peak_rss_mb and injections_per_*, mostly on the replay workloads"},
	{"go.gc_cycles", "count", "lower", "peak_rss_mb and injections_per_*, mostly on the replay workloads"},
	{"go.gc_pause_ms", "ms", "lower", "injections_per_*, mostly on the replay workloads"},
	{"trace.overhead_frac", "frac", "lower", "none: traced wall / untraced wall - 1 of the same work"},
}
