package telemetry

// SearchMetrics bundles the search-side series of a Registry: what the
// tuner grid search, the graph tuner and the simulator engines did,
// exposed as first-class Prometheus series. The tuner adds the deterministic
// counters of its canonical merge loop (so the totals match the sequential
// search bit for bit) and folds memo and simulation counts in as post-search
// deltas.
//
// A nil *SearchMetrics — or one built from a nil Registry — no-ops on
// every field, so instrumented code updates unconditionally.
type SearchMetrics struct {
	// PointsExplored counts grid points fully evaluated (simulated or
	// graph-optimized); PointsOOM, PointsPruned, PointsBoundPruned and
	// PointsMemPruned count points rejected by memory fit, structural
	// infeasibility, the admissible throughput upper bound, and the
	// branch-and-bound memory lower bound respectively; PointsImproved
	// counts evaluations that improved the incumbent.
	PointsExplored, PointsOOM, PointsPruned, PointsBoundPruned, PointsMemPruned, PointsImproved *Counter
	// BuildHits/BuildMisses count the schedule-build memo cache.
	BuildHits, BuildMisses *Counter
	// Sims counts simulator executions across every engine (direct
	// evaluations and graph inner loops).
	Sims *Counter
	// GraphRounds counts simulator-guided prepose rounds across graph
	// runs.
	GraphRounds *Counter
	// ScanFiltered, ScanIllegal and ScanSimulated count the single-device
	// candidates of those rounds' per-device scans by verdict: refused by
	// the critical-chain filter, simulated into a deadlock or a mismatched
	// pop, simulated otherwise.
	ScanFiltered, ScanIllegal, ScanSimulated *Counter
	// Searches counts tuner grid searches started.
	Searches *Counter
	// SearchSeconds is the per-search wall-clock histogram.
	SearchSeconds *Histogram
}

// AddSims records n simulator executions. Safe on nil.
func (m *SearchMetrics) AddSims(n int64) {
	if m != nil {
		m.Sims.Add(n)
	}
}

// AddScanCandidates records per-device scan candidates by verdict. Safe on nil.
func (m *SearchMetrics) AddScanCandidates(filtered, illegal, simulated int64) {
	if m != nil {
		m.ScanFiltered.Add(filtered)
		m.ScanIllegal.Add(illegal)
		m.ScanSimulated.Add(simulated)
	}
}

// AddGraphRounds records n prepose rounds. Safe on nil.
func (m *SearchMetrics) AddGraphRounds(n int64) {
	if m != nil {
		m.GraphRounds.Add(n)
	}
}

// NewSearchMetrics registers the search series on r and returns the
// handles. Safe on a nil registry: every handle is nil and no-ops.
func NewSearchMetrics(r *Registry) *SearchMetrics {
	return &SearchMetrics{
		PointsExplored:    r.LabeledCounter("mario_search_points_total", "Grid points by outcome.", "outcome", "explored"),
		PointsOOM:         r.LabeledCounter("mario_search_points_total", "Grid points by outcome.", "outcome", "oom"),
		PointsPruned:      r.LabeledCounter("mario_search_points_total", "Grid points by outcome.", "outcome", "infeasible"),
		PointsBoundPruned: r.LabeledCounter("mario_search_points_total", "Grid points by outcome.", "outcome", "bound_pruned"),
		PointsMemPruned:   r.LabeledCounter("mario_search_points_total", "Grid points by outcome.", "outcome", "memory_pruned"),
		PointsImproved:    r.Counter("mario_search_improved_total", "Evaluations that improved the incumbent."),
		BuildHits:         r.LabeledCounter("mario_search_build_memo_total", "Schedule-build memo lookups.", "result", "hit"),
		BuildMisses:       r.LabeledCounter("mario_search_build_memo_total", "Schedule-build memo lookups.", "result", "miss"),
		Sims:              r.Counter("mario_search_sims_total", "Simulator executions across all engines."),
		GraphRounds:       r.Counter("mario_search_graph_rounds_total", "Simulator-guided prepose rounds."),
		ScanFiltered:      r.LabeledCounter("mario_search_scan_candidates_total", "Per-device prepose scan candidates by verdict.", "verdict", "filtered"),
		ScanIllegal:       r.LabeledCounter("mario_search_scan_candidates_total", "Per-device prepose scan candidates by verdict.", "verdict", "illegal"),
		ScanSimulated:     r.LabeledCounter("mario_search_scan_candidates_total", "Per-device prepose scan candidates by verdict.", "verdict", "simulated"),
		Searches:          r.Counter("mario_search_runs_total", "Tuner grid searches started."),
		SearchSeconds:     r.Histogram("mario_search_seconds", "Per-search wall-clock.", LatencyBounds),
	}
}
