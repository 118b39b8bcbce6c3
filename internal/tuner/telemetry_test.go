package tuner

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/telemetry"
)

// searchTrace runs one detSpace search on a fresh Tuner with the given
// worker count and returns the canonical exports.
func searchTrace(t *testing.T, workers int) (jsonl, chrome string, tr *telemetry.Trace) {
	t.Helper()
	tn := newTuner()
	tn.Workers = workers
	tracer := telemetry.New("test-fingerprint")
	tn.Span = tracer.Root(telemetry.PhaseOptimize, "")
	if _, _, err := tn.Search(detSpace()); err != nil {
		t.Fatalf("Search(workers=%d): %v", workers, err)
	}
	tn.Span.End()
	tr = tracer.Snapshot()
	return string(tr.JSONL()), string(tr.ChromeTrace()), tr
}

// TestTraceWorkerIndependence is the tentpole determinism contract: the
// canonical trace exports (JSONL, canonical Chrome trace, tree rendering)
// are byte-identical for every worker count, even though workers record
// spans speculatively and memo hit/miss attribution is a scheduling
// accident.
func TestTraceWorkerIndependence(t *testing.T) {
	baseJSONL, baseChrome, baseTr := searchTrace(t, 1)
	if baseJSONL == "" {
		t.Fatal("sequential search produced an empty JSONL trace")
	}
	counts := []int{4, runtime.GOMAXPROCS(0)}
	for _, w := range counts {
		jsonl, chrome, tr := searchTrace(t, w)
		if jsonl != baseJSONL {
			t.Errorf("JSONL trace differs between workers=1 and workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s",
				w, baseJSONL, w, jsonl)
		}
		if chrome != baseChrome {
			t.Errorf("canonical Chrome trace differs between workers=1 and workers=%d", w)
		}
		if got, want := tr.Tree(), baseTr.Tree(); got != want {
			t.Errorf("tree rendering differs between workers=1 and workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s",
				w, want, w, got)
		}
	}
}

// TestTraceShape spot-checks the canonical structure: one optimize root,
// one search child, one point span per grid point with result attributes
// followed by the probe pass's one bound span — the winner is not simulated
// again — and memo tags on the build spans.
func TestTraceShape(t *testing.T) {
	_, _, tr := searchTrace(t, 1)
	if len(tr.Roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(tr.Roots))
	}
	root := tr.Roots[0]
	if root.Phase != telemetry.PhaseOptimize {
		t.Fatalf("root phase = %q, want optimize", root.Phase)
	}
	if len(root.Children) != 1 || root.Children[0].Phase != telemetry.PhaseSearch {
		t.Fatalf("optimize root should have exactly one search child, got %+v", root.Children)
	}
	search := root.Children[0]
	space := detSpace().WithDefaults()
	points := enumerate(space)
	if len(search.Children) != len(points)+1 {
		t.Fatalf("search has %d children, want %d (one per grid point + the probe pass)", len(search.Children), len(points)+1)
	}
	if probe := search.Children[len(points)]; probe.Phase != telemetry.PhaseBound || len(probe.Children) != 0 {
		t.Fatalf("last search child is %q with %d children, want a leaf bound span", probe.Phase, len(probe.Children))
	}
	memoFirst := 0
	for _, pt := range search.Children[:len(points)] {
		if pt.Phase != telemetry.PhasePoint {
			t.Fatalf("search child phase = %q, want point", pt.Phase)
		}
		result := ""
		for _, a := range pt.Attrs {
			if a.K == "result" {
				result = a.V
			}
		}
		switch result {
		case "explored", "oom", "infeasible", "bound_pruned":
		default:
			t.Fatalf("point %q has result %q", pt.Key, result)
		}
		for _, c := range pt.Children {
			if c.Phase == telemetry.PhaseBuild && c.Memo == "first" {
				memoFirst++
			}
		}
	}
	if memoFirst == 0 {
		t.Error("no build span is tagged memo=first; memo normalization is not running")
	}
}

// TestSelfTimeTelescopes verifies the telescoping identity the flight
// recorder and the acceptance criterion rely on: the per-phase self times
// sum exactly to the root span's duration, and the root span's duration is
// within 5% of the externally measured wall-clock of the search.
func TestSelfTimeTelescopes(t *testing.T) {
	tn := seqTuner()
	tracer := telemetry.New("fp")
	tn.Span = tracer.Root(telemetry.PhaseOptimize, "")
	start := time.Now()
	if _, _, err := tn.Search(detSpace()); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	tn.Span.End()
	tr := tracer.Snapshot()

	var selfSum time.Duration
	for _, row := range tr.PhaseSummary() {
		selfSum += row.Self
	}
	rootDur := tr.Roots[0].Dur()
	if selfSum != rootDur {
		t.Errorf("self times sum to %v, root duration is %v (telescoping identity broken)", selfSum, rootDur)
	}
	ratio := float64(rootDur) / float64(wall)
	if math.Abs(ratio-1) > 0.05 {
		t.Errorf("root span duration %v vs measured wall-clock %v (ratio %.3f, want within 5%%)", rootDur, wall, ratio)
	}
}

// TestSearchMetrics checks that the deterministic outcome counters match
// SearchStats exactly for any worker count.
func TestSearchMetrics(t *testing.T) {
	for _, w := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		m := telemetry.NewSearchMetrics(reg)
		tn := newTuner()
		tn.Workers = w
		tn.Metrics = m
		if _, _, err := tn.Search(detSpace()); err != nil {
			t.Fatal(err)
		}
		st := tn.Stats
		checks := []struct {
			name string
			got  int64
			want int
		}{
			{"explored", m.PointsExplored.Value(), st.Explored},
			{"oom", m.PointsOOM.Value(), st.OOMRejected},
			{"infeasible", m.PointsPruned.Value(), st.Pruned},
			{"bound_pruned", m.PointsBoundPruned.Value(), st.BoundPruned},
			{"improved", m.PointsImproved.Value(), st.Improved},
		}
		for _, c := range checks {
			if c.got != int64(c.want) {
				t.Errorf("workers=%d: metric %s = %d, SearchStats says %d", w, c.name, c.got, c.want)
			}
		}
		if m.Searches.Value() != 1 {
			t.Errorf("workers=%d: searches counter = %d, want 1", w, m.Searches.Value())
		}
		if m.Sims.Value() == 0 {
			t.Errorf("workers=%d: sims counter stayed zero", w)
		}
		hits, misses := tn.builds.hits.Load(), tn.builds.misses.Load()
		if got := m.BuildHits.Value(); got != hits {
			t.Errorf("workers=%d: memo hit metrics = %d, build memo hits = %d", w, got, hits)
		}
		if got := m.BuildMisses.Value(); got != misses {
			t.Errorf("workers=%d: memo miss metrics = %d, build memo misses = %d", w, got, misses)
		}
	}
}

// TestSplitBackwardSimsCounted: every simulation of a search runs on an engine
// bundle whose creator reports it, the split-backward pass's base comparison
// included. An unpruned search evaluates every feasible point exactly once,
// so the registry must read what a replay of the same evaluations counts on a
// bundle the test owns.
func TestSplitBackwardSimsCounted(t *testing.T) {
	sp := Space{Devices: 4, GlobalBatch: 16, MicroBatches: []int{1, 2},
		DeviceMem: cost.A100_40G.MemBytes, SplitBackward: true, MaxRounds: 3, NoPrune: true}
	eng := graph.NewEngines()
	ref, full := newTuner(), sp.WithDefaults()
	for _, p := range enumerate(full) {
		if nd, ok := ref.probePoint(full, p, ref.pointShape(full, p)); ok {
			ref.evalPoint(context.Background(), full, nd, eng, telemetry.Span{})
		}
	}
	for _, w := range []int{1, 4} {
		m := telemetry.NewSearchMetrics(telemetry.NewRegistry())
		tn := newTuner()
		tn.Workers = w
		tn.Metrics = m
		if _, _, err := tn.Search(sp); err != nil {
			t.Fatal(err)
		}
		if got, want := m.Sims.Value(), eng.Main.Sims; got != want {
			t.Errorf("workers=%d: mario_search_sims_total = %d, the evaluations ran %d", w, got, want)
		}
	}
}

// TestTracedOffPruneAllocatesNothing: with tracing off, probing and pruning a
// structurally infeasible grid point allocates nothing — in particular no span
// key is formatted for the span that is never made.
func TestTracedOffPruneAllocatesNothing(t *testing.T) {
	tn := newTuner()
	sp := detSpace().WithDefaults()
	p := gridPoint{scheme: sp.Schemes[0], pp: 8, dp: 1, mbs: 3} // 3 does not divide the batch
	var stats SearchStats
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := tn.probePoint(sp, p, tn.pointShape(sp, p)); ok {
			t.Fatal("fixture point is feasible")
		}
		tn.pruneInfeasible(7, p, nil, telemetry.Span{}, &stats)
	})
	if allocs != 0 {
		t.Errorf("traced-off probe + prune allocates %.0f objects per point, want 0", allocs)
	}
	if stats.Pruned == 0 {
		t.Error("prune was not counted")
	}
}
