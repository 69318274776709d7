package main

// metricDef is one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions (a test keeps the two
// in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// workload owns a per-layer metric; traced runs of the other
	// workloads, which never run that layer, report it as 0. Empty for
	// end-to-end metrics, which every workload reports.
	workload string
}

// endToEnd are the metrics an untraced run of every workload reports.
// Each workload gives each one its own concrete definition (README.md):
//
//	setup_s      text dumps → sacct.Load | OpenFile + Warm | tracegen.Generate
//	run_s        core.RunFederated | closed-loop request batch | tournament.Run
//	op_ms        dataflow task | /query p50 from due time | policy arm run alone
//	peak_rss_mb  median over reps of the rep's own VmHWM
//
// Tails are per-layer metrics: each workload's tail swung by more than
// the 25% bound across ten runs.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "run_s", unit: "s", better: "lower"},
	{name: "op_ms", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are the traced run's metrics for the workloads BENCHMARK.json
// lists, grouped by the workload that exercises the layer.
var perLayer = append(workflowLayers, tournamentLayers...)

// layersOf returns the per-layer metrics the named workload owns.
func layersOf(name string) []metricDef {
	var out []metricDef
	for _, list := range [][]metricDef{perLayer, serveLayers} {
		for _, d := range list {
			if d.workload == name {
				out = append(out, d)
			}
		}
	}
	return out
}

var workflowLayers = []metricDef{
	{name: "sacct.load_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "sacct.load_allocs_per_row", unit: "allocs/row", better: "lower", workload: "workflow"},
	{name: "sacct.fetch_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "slurm.decode_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "curate.stream_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "curate.rows_kept", unit: "count", better: "higher", workload: "workflow"},
	{name: "curate.rows_malformed", unit: "count", better: "lower", workload: "workflow"},
	{name: "analyze.merge_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "analyze.compare_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "core.chart_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "plot.render_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "raster.png_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "llm.analyze_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "llm.requests", unit: "count", better: "lower", workload: "workflow"},
	{name: "dataflow.gap_s", unit: "s", better: "lower", workload: "workflow"},
	{name: "dataflow.slowest_task_ms", unit: "ms", better: "lower", workload: "workflow"},
	{name: "workflow.trace_overhead", unit: "ratio", better: "lower", workload: "workflow"},
}

var serveLayers = []metricDef{
	{name: "serve.server_query_ms", unit: "ms", better: "lower", workload: "serve"},
	{name: "serve.client_overhead_ms", unit: "ms", better: "lower", workload: "serve"},
	{name: "loadgen.late_ms_p99", unit: "ms", better: "lower", workload: "serve"},
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher", workload: "serve"},
	{name: "serve.cache_misses", unit: "count", better: "lower", workload: "serve"},
	{name: "serve.cache_coalesced", unit: "count", better: "higher", workload: "serve"},
	{name: "serve.query_p95_ms", unit: "ms", better: "lower", workload: "serve"},
	{name: "serve.query_p99_ms", unit: "ms", better: "lower", workload: "serve"},
	{name: "serve.figure_tail_ms", unit: "ms", better: "lower", workload: "serve"},
	{name: "serve.ingest_tail_ms", unit: "ms", better: "lower", workload: "serve"},
	{name: "serve.capacity_qps", unit: "1/s", better: "higher", workload: "serve"},
	{name: "sacct.scan_ms", unit: "ms", better: "lower", workload: "serve"},
	{name: "colstore.bytes_read", unit: "B", better: "lower", workload: "serve"},
	{name: "colstore.columns_read", unit: "count", better: "lower", workload: "serve"},
	{name: "sacct.warm_s", unit: "s", better: "lower", workload: "serve"},
	{name: "analyze.collect_s", unit: "s", better: "lower", workload: "serve"},
	{name: "core.chart_ms", unit: "ms", better: "lower", workload: "serve"},
	{name: "slurm.batch_decode_ms", unit: "ms", better: "lower", workload: "serve"},
	{name: "sacct.add_ms", unit: "ms", better: "lower", workload: "serve"},
	{name: "serve.trace_overhead", unit: "ratio", better: "lower", workload: "serve"},
}

// tournamentArms are the tournament.DefaultSpecs names, in order.
var tournamentArms = []string{"default", "capability", "aging", "fairshare", "fifo", "conservative", "no-backfill"}

var tournamentLayers = func() []metricDef {
	out := []metricDef{{name: "tracegen.generate_s", unit: "s", better: "lower", workload: "tournament"}}
	for _, arm := range tournamentArms {
		p := "sched." + arm + "."
		out = append(out,
			metricDef{name: p + "run_s", unit: "s", better: "lower", workload: "tournament"},
			metricDef{name: p + "ns_per_pass", unit: "ns/pass", better: "lower", workload: "tournament"},
			metricDef{name: p + "passes", unit: "count", better: "lower", workload: "tournament"},
			metricDef{name: p + "events", unit: "count", better: "lower", workload: "tournament"},
			metricDef{name: p + "backfill_attempts", unit: "count", better: "lower", workload: "tournament"},
		)
	}
	return append(out,
		metricDef{name: "tournament.slowest_arm_ms", unit: "ms", better: "lower", workload: "tournament"},
		metricDef{name: "tournament.trace_overhead", unit: "ratio", better: "lower", workload: "tournament"})
}()

// fillUnrunLayers sets every catalog per-layer metric owned by another
// workload to 0: the traced run of name never enters those layers.
func fillUnrunLayers(name string, m map[string]float64) {
	for _, d := range perLayer {
		if d.workload != name {
			m[d.name] = 0
		}
	}
}
