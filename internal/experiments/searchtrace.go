package experiments

import (
	"fmt"
	"io"
	"strings"

	"mario/internal/cost"
	"mario/internal/telemetry"
	"mario/internal/tuner"
)

// SearchTraceResult is the telemetry walkthrough: one traced tuner search
// with its canonical span tree, per-phase span counts and registry
// counters — the artifacts a "why is this search slow?" investigation
// starts from.
type SearchTraceResult struct {
	Best    string
	Trace   *telemetry.Trace
	Metrics *telemetry.SearchMetrics
	// BnB and Grid are the search stats of the branch-and-bound walk (the
	// traced run above) and of a canonical grid walk over the identical
	// space: same argmax, different number of simulated points.
	BnB  tuner.SearchStats
	Grid tuner.SearchStats
}

// SearchTrace runs a grid search with a live Tracer and registry attached
// and snapshots the canonical trace. Workers is pinned to 1 so the build
// and simulation counters are deterministic too (the canonical trace
// itself is byte-identical for every worker count; the fold-in counters
// are not, which is why this demo holds them still for the golden check).
func SearchTrace(opt Opts) (*SearchTraceResult, error) {
	devices, gbs := 8, 64
	mbs := []int{1, 2, 4}
	if opt.Fast {
		devices, gbs = 4, 16
		mbs = []int{1, 2}
	}
	tracer := telemetry.New("experiments/searchtrace")
	root := tracer.Root(telemetry.PhaseOptimize, "")
	tn := &tuner.Tuner{
		Prof:    newProfiler(cost.GPT3_1_6B),
		Workers: 1,
		Span:    root,
		Metrics: telemetry.NewSearchMetrics(telemetry.NewRegistry()),
	}
	space := tuner.Space{
		Devices:      devices,
		GlobalBatch:  gbs,
		MicroBatches: mbs,
		TP:           1,
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    1,
	}
	best, _, err := tn.Search(space)
	if err != nil {
		return nil, err
	}
	root.End()

	// The strategy comparison: walk the identical space with the canonical
	// grid (bound pruning only behind the incumbent, no best-first order,
	// no admissible memory floor) and check it lands on the same argmax.
	gridSpace := space
	gridSpace.NoBnB = true
	gridTn := &tuner.Tuner{Prof: tn.Prof, Workers: 1}
	gridBest, _, err := gridTn.Search(gridSpace)
	if err != nil {
		return nil, err
	}
	if gridBest.Label() != best.Label() {
		return nil, fmt.Errorf("searchtrace: grid argmax %s != bnb argmax %s", gridBest.Label(), best.Label())
	}
	return &SearchTraceResult{
		Best:    best.Label(),
		Trace:   tracer.Snapshot(),
		Metrics: tn.Metrics,
		BnB:     tn.Stats,
		Grid:    gridTn.Stats,
	}, nil
}

// searchTraceTreeLines bounds the documented tree excerpt; the full tree
// for even the fast grid runs to hundreds of lines.
const searchTraceTreeLines = 24

// PrintSearchTrace renders the walkthrough: winner, an excerpt of the
// canonical span tree, per-phase span counts, and the deterministic search
// counters. Wall-clock self-times are deliberately absent — they belong to
// the measured exports, not to output a golden check pins.
func PrintSearchTrace(w io.Writer, r *SearchTraceResult) {
	fmt.Fprintf(w, "best %s\n\n", r.Best)

	lines := strings.Split(strings.TrimRight(r.Trace.Tree(), "\n"), "\n")
	shown := lines
	if len(shown) > searchTraceTreeLines {
		shown = shown[:searchTraceTreeLines]
	}
	fmt.Fprintf(w, "canonical span tree (first %d of %d lines):\n", len(shown), len(lines))
	for _, l := range shown {
		fmt.Fprintf(w, "  %s\n", l)
	}

	fmt.Fprintf(w, "\nspans by phase:\n")
	for _, row := range r.Trace.PhaseSummary() {
		fmt.Fprintf(w, "  %-10s %4d\n", row.Phase, row.Count)
	}

	m := r.Metrics
	fmt.Fprintf(w, "\nsearch counters:\n")
	fmt.Fprintf(w, "  explored=%d oom=%d infeasible=%d bound_pruned=%d mem_pruned=%d improved=%d\n",
		m.PointsExplored.Value(), m.PointsOOM.Value(), m.PointsPruned.Value(),
		m.PointsBoundPruned.Value(), m.PointsMemPruned.Value(), m.PointsImproved.Value())
	fmt.Fprintf(w, "  build_memo hit=%d miss=%d\n", m.BuildHits.Value(), m.BuildMisses.Value())
	fmt.Fprintf(w, "  sims=%d graph_rounds=%d  scan_candidates filtered=%d illegal=%d simulated=%d\n",
		m.Sims.Value(), m.GraphRounds.Value(),
		m.ScanFiltered.Value(), m.ScanIllegal.Value(), m.ScanSimulated.Value())

	// Why branch-and-bound simulates fewer points: the probe pass orders the
	// grid best-first by an admissible throughput upper bound, so once the
	// true optimum is simulated every point whose bound cannot beat it is
	// cut, and the admissible memory floor rejects configurations that
	// cannot fit before any simulation. The canonical grid only skips
	// points whose bound falls behind the incumbent it happens to have.
	fmt.Fprintf(w, "\nstrategy comparison (identical argmax %s):\n", r.Best)
	for _, row := range []struct {
		name string
		st   tuner.SearchStats
	}{{"bnb", r.BnB}, {"grid", r.Grid}} {
		fmt.Fprintf(w, "  %-4s explored=%d bound_pruned=%d mem_pruned=%d infeasible=%d\n",
			row.name, row.st.Explored, row.st.BoundPruned, row.st.MemPruned, row.st.Pruned)
	}
}
