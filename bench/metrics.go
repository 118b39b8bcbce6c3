package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json carries the same table;
// TestBenchmarkJSONMatchesHarness keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it worse. Per-layer metrics
	// carry none.
	Bound float64
	// On names the workloads whose traced pass measures a per-layer
	// metric: "all", "planned" (those whose traced ops run the tuner),
	// "serve", or one workload name. Elsewhere the layer is not on the path
	// and the metric reads 0.
	On string
}

// endToEnd are the metrics a user of the planner sees, measured with
// tracing off. The five after plan_mb are exact: they come from the
// canonical input (profile.DefaultMachine), in simulated or virtual time or
// as byte counts, so a change that only speeds the planner leaves them
// identical on every seed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "plan_mb", Unit: "MB", Better: "lower", Bound: 0.001},
	{Name: "plan_samples_per_s", Unit: "samples/s", Better: "higher", Bound: 0.001},
	{Name: "run_samples_per_s", Unit: "samples/s", Better: "higher", Bound: 0.001},
	{Name: "plan_peak_mem_gb", Unit: "GB", Better: "lower", Bound: 0.001},
	{Name: "fidelity_err_pct", Unit: "%", Better: "lower", Bound: 0.01},
}

// exactMetrics repeat exactly on a deterministic planner; -compare notes any
// movement in them, however small.
var exactMetrics = map[string]bool{
	"plan_mb": true, "plan_samples_per_s": true, "run_samples_per_s": true,
	"plan_peak_mem_gb": true, "fidelity_err_pct": true,
}

// specNames are the four searches of one search-mixed round.
var specNames = []string{"llama3b-4", "hetero-8", "zbh1-16", "dualpipe-8"}

// perLayer are the metrics of single modules, measured by the traced pass.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(on, module, unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: module + "." + n, Unit: unit, Better: better, On: on})
		}
	}
	// Program phases and counters of a search.
	add("planned", "tuner", "count", "lower", "grid_points", "points_explored", "points_oom",
		"points_infeasible", "points_bound_pruned", "points_mem_pruned", "points_improved")
	add("planned", "tuner", "ratio", "lower", "explored_ratio")
	add("planned", "tuner", "ratio", "higher", "build_memo_hit_ratio", "graph_memo_hit_ratio")
	add("planned", "tuner", "ms", "lower", "search_self_ms", "point_self_ms", "build_self_ms", "bound_self_ms")
	add("planned", "graph", "ms", "lower", "graph_self_ms", "round_self_ms")
	add("planned", "graph", "count", "lower", "rounds")
	add("all", "graph", "ms", "lower", "optimize_ms")
	add("all", "graph", "count", "lower", "optimize_allocs", "instrs_after")
	add("planned", "sim", "ms", "lower", "sim_self_ms")
	add("planned", "sim", "count", "lower", "sims")
	add("planned", "sim", "us", "lower", "us_per_sim")
	add("all", "sim", "ms", "lower", "simulate_cold_ms")
	add("all", "sim", "count", "lower", "simulate_cold_allocs")
	add("all", "sim", "us", "lower", "simulate_warm_us")
	add("all", "profile", "ms", "lower", "fit_cold_ms")
	add("all", "profile", "count", "lower", "fit_allocs")
	add("all", "profile", "us", "lower", "estimator_warm_us")
	add("all", "scheme", "ms", "lower", "build_ms")
	add("all", "scheme", "count", "lower", "instrs")
	add("all", "place", "ms", "lower", "coopt_ms")
	add("all", "place", "count", "lower", "coopt_allocs")
	add("all", "cluster", "ms", "lower", "run_ms_per_iter")
	add("all", "cluster", "count", "lower", "events_per_iter")
	add("all", "cluster", "us", "lower", "host_us_per_event")
	add("all", "obs", "ms", "lower", "drift_ms")
	add("all", "obs", "%", "lower", "time_mape_pct", "mem_mape_pct")
	add("all", "plan_json", "ms", "lower", "encode_ms", "decode_ms")
	add("all", "plan_json", "count", "lower", "encode_allocs", "decode_allocs", "bytes")
	add("all", "plan_json", "%", "higher", "best_share_pct")
	add("serve", "serve", "us", "lower", "validate_fingerprint_us")
	add("serve", "serve", "ms", "lower", "handler_ms", "transport_ms", "unattributed_ms")
	add("serve", "serve", "ratio", "higher", "cache_hit_ratio")
	add("serve", "serve", "ratio", "lower", "shared_ratio", "peer_ratio")
	add("serve", "serve", "ms", "lower", "direct_ms_p50")
	add("serve-hot", "serve", "ms", "lower", "peer_ms_p50", "peer_hop_ms")
	add("serve", "serve", "count", "lower", "rejected_429", "rejected_503", "resp_bytes")
	add("serve", "serve", "ms", "lower", "metrics_scrape_ms")
	add("serve", "client", "ms", "lower", "envelope_decode_ms", "load_plan_ms")
	add("serve-hot", "fleet", "ms", "lower", "cold_ms_p50", "shard_overhead_ms")
	add("serve-hot", "fleet", "count", "lower", "shard_waves", "shard_fallbacks")
	add("all", "telemetry", "ms", "lower", "traced_op_ms")
	add("all", "telemetry", "%", "lower", "overhead_pct")
	add("planned", "telemetry", "count", "lower", "spans_per_op")
	add("all", "proc", "ms", "lower", "first_op_ms", "gc_pause_ms_per_op")
	add("all", "proc", "count", "lower", "gc_count_per_op")
	for _, s := range specNames {
		add("search-mixed", "spec", "ms", "lower", s+".ms_p50")
		add("search-mixed", "spec", "samples/s", "higher", s+".plan_samples_per_s")
	}
	return out
}

// measuredOn reports whether workload w's traced pass measures metric d.
func (d metricDef) measuredOn(w *workload) bool {
	switch d.On {
	case "all":
		return true
	case "planned":
		return !w.tunerIdle
	case "serve":
		return w.serve
	default:
		return d.On == w.name
	}
}

// values collects one run's metrics by name.
type values map[string]float64

// checked returns the values of defs for workload w, in declaration order.
// A per-layer metric the workload does not measure reads 0; an undeclared,
// missing or misplaced name is a bug in the harness and fails the run.
func (v values) checked(defs []metricDef, w *workload, layered bool) ([]float64, error) {
	declared := map[string]bool{}
	out := make([]float64, len(defs))
	for i, d := range defs {
		declared[d.Name] = true
		x, set := v[d.Name]
		want := !layered || d.measuredOn(w)
		switch {
		case want && !set:
			return nil, fmt.Errorf("metric %s: declared for %s but not measured", d.Name, w.name)
		case !want && set:
			return nil, fmt.Errorf("metric %s: measured on %s but declared for %q only", d.Name, w.name, d.On)
		}
		out[i] = x
	}
	var extra []string
	for name := range v {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return out, nil
}
