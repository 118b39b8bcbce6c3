package tuner

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/profile"
	"mario/internal/telemetry"
)

// detSpace is a grid large enough to exercise every scheme, both checkpoint
// settings, several PP/mbs combinations, OOM penalties and the upper-bound
// prune.
func detSpace() Space {
	return Space{
		Devices:      8,
		GlobalBatch:  64,
		MicroBatches: []int{1, 2, 4},
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    3,
	}
}

// searchRun captures everything a Search emits, rendered to comparable form.
type searchRun struct {
	best     string
	trace    []string
	progress []string
	stats    SearchStats
}

// candString renders a candidate byte-exactly: label, the raw float bits of
// the throughput, the OOM flag, the simulated makespan and per-device peaks,
// and the full schedule text when the candidate carries its schedule.
func candString(c Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s micros=%d thpt=%016x oom=%v", c.Label(), c.Micros, math.Float64bits(c.Throughput), c.OOM)
	if c.Result != nil {
		fmt.Fprintf(&b, " total=%016x peaks=", math.Float64bits(c.Result.Total))
		for _, p := range c.Result.PeakMem {
			fmt.Fprintf(&b, "%016x,", math.Float64bits(p))
		}
	}
	if c.Schedule != nil {
		b.WriteByte('\n')
		b.WriteString(c.Schedule.String())
	}
	return b.String()
}

// capture runs sp on tn and renders everything the search emits. Best carries
// its schedule; a trace entry carries none, so its schedule text is the one
// Resimulate rebuilds from the entry's coordinates (on a fresh Tuner, which
// leaves tn's memo and metrics alone) — and that must be the text of the
// schedule the search scored, which Progress saw for every candidate this
// process evaluated. The runs a determinism test compares therefore still
// cover every explored schedule, whoever evaluated it.
func capture(t *testing.T, tn *Tuner, sp Space) searchRun {
	t.Helper()
	var run searchRun
	scored := map[gridPoint]string{}
	tn.Progress = func(c Candidate, best Candidate) {
		run.progress = append(run.progress, fmt.Sprintf("%s|%016x -> %s|%016x",
			c.Label(), math.Float64bits(c.Throughput), best.Label(), math.Float64bits(best.Throughput)))
		if c.Schedule != nil {
			scored[pointOf(c)] = c.Schedule.String()
		}
	}
	best, trace, err := tn.Search(sp)
	if err != nil {
		t.Fatalf("Search(%+v): %v", sp, err)
	}
	if best.Schedule == nil || best.Result.Timeline != nil {
		t.Fatalf("best %s carries no schedule, or a timeline", best.Label())
	}
	run.best = candString(*best)
	rebuilder := &Tuner{Prof: tn.Prof}
	for _, c := range trace {
		if c.Schedule != nil || c.Result.Timeline != nil {
			t.Errorf("trace entry %s carries a schedule or a timeline", c.Label())
		}
		sched, res, err := rebuilder.Resimulate(context.Background(), &c, sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Timeline) != sched.TotalInstrs() {
			t.Errorf("%s: rebuilt timeline holds %d records for %d instructions", c.Label(), len(res.Timeline), sched.TotalInstrs())
		}
		if was, ok := scored[pointOf(c)]; ok && was != sched.String() {
			t.Errorf("%s: rebuilt schedule differs from the one the search scored", c.Label())
		}
		c.Schedule = sched
		run.trace = append(run.trace, candString(c))
	}
	run.stats = tn.Stats
	return run
}

func runSearch(t *testing.T, workers int) searchRun {
	t.Helper()
	sp := detSpace()
	sp.MaxRounds = 2
	return capture(t, &Tuner{
		Prof: &profile.Profiler{
			Model:   cost.LLaMA2_3B,
			HW:      cost.A100_40G,
			Spec:    profile.DefaultMachine,
			Devices: 4,
			Iters:   4,
		},
		Workers: workers,
	}, sp)
}

// TestSearchDeterministicAcrossWorkers is the PR's core guarantee: the best
// candidate, the full trace in order, the Progress callback sequence and the
// SearchStats are identical for Workers ∈ {1, 4, GOMAXPROCS}.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	base := runSearch(t, 1)
	if base.stats.Explored == 0 {
		t.Fatal("sequential baseline explored nothing")
	}
	if base.stats.BoundPruned == 0 {
		t.Log("note: no points were bound-pruned in the baseline grid")
	}
	workerSet := []int{4, runtime.GOMAXPROCS(0)}
	for _, w := range workerSet {
		got := runSearch(t, w)
		if got.stats != base.stats {
			t.Errorf("workers=%d: stats %+v, want %+v", w, got.stats, base.stats)
		}
		if got.best != base.best {
			t.Errorf("workers=%d: best differs\n got: %s\nwant: %s", w, got.best, base.best)
		}
		if len(got.trace) != len(base.trace) {
			t.Fatalf("workers=%d: trace length %d, want %d", w, len(got.trace), len(base.trace))
		}
		for i := range got.trace {
			if got.trace[i] != base.trace[i] {
				t.Errorf("workers=%d: trace[%d] differs\n got: %s\nwant: %s", w, i, got.trace[i], base.trace[i])
				break
			}
		}
		if len(got.progress) != len(base.progress) {
			t.Fatalf("workers=%d: %d progress callbacks, want %d", w, len(got.progress), len(base.progress))
		}
		for i := range got.progress {
			if got.progress[i] != base.progress[i] {
				t.Errorf("workers=%d: progress[%d] = %q, want %q", w, i, got.progress[i], base.progress[i])
				break
			}
		}
	}
}

// TestTunerFieldsKeepTheSearch walks Tuner's exported fields by reflection,
// as TestFingerprintCoversConfig walks mario.Config: a field is either named
// in searchIO — the cost model the search scores with, or what it reports —
// or it only says how a search runs, and then, set to a value that is not its
// default, it must leave the best candidate, the trace and Stats equal to the
// bare search's. A field in neither table fails: an input that shapes the plan
// belongs on Space, which the workload fingerprint hashes, not on Tuner.
func TestTunerFieldsKeepTheSearch(t *testing.T) {
	searchIO := map[string]string{
		"Prof":  "the cost model",
		"Stats": "the search's output",
	}
	runOnly := map[string]func(*Tuner){
		"Workers":  func(tn *Tuner) { tn.Workers = 3 },
		"Progress": func(tn *Tuner) { tn.Progress = func(Candidate, Candidate) {} },
		"Span":     func(tn *Tuner) { tn.Span = telemetry.New("another-fingerprint").Root(telemetry.PhaseOptimize, "") },
		"Metrics":  func(tn *Tuner) { tn.Metrics = telemetry.NewSearchMetrics(telemetry.NewRegistry()) },
	}
	search := func(set func(*Tuner)) string {
		t.Helper()
		tn := newTuner()
		if set != nil {
			set(tn)
		}
		best, trace, err := tn.Search(detSpace())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString(candString(*best))
		for _, c := range trace {
			b.WriteString("\n" + candString(c))
		}
		fmt.Fprintf(&b, "\n%+v", tn.Stats)
		return b.String()
	}
	bare := search(nil)
	typ := reflect.TypeOf(Tuner{})
	exported := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		exported++
		_, isIO := searchIO[f.Name]
		set, isRun := runOnly[f.Name]
		switch {
		case isIO == isRun:
			t.Errorf("Tuner.%s: in both tables or in neither — an input that shapes the plan belongs on Space", f.Name)
		case isRun && search(set) != bare:
			t.Errorf("Tuner.%s changes the search's best, trace or Stats: it belongs on Space", f.Name)
		}
	}
	if n := len(searchIO) + len(runOnly); n != exported {
		t.Errorf("the tables name %d fields, Tuner exports %d: a table line names a field that is gone", n, exported)
	}
}

// TestSearchPruneEquivalence: pruning must never change the winner, only the
// amount of work — the bound is admissible, so the best candidate and the
// improvement path are those of the exhaustive search.
func TestSearchPruneEquivalence(t *testing.T) {
	mk := seqTuner
	sp := detSpace()
	pruned := mk()
	bestP, traceP, err := pruned.Search(sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.NoPrune = true
	full := mk()
	bestF, traceF, err := full.Search(sp)
	if err != nil {
		t.Fatal(err)
	}
	if candString(*bestP) != candString(*bestF) {
		t.Errorf("prune changed the winner:\n got: %s\nwant: %s", candString(*bestP), candString(*bestF))
	}
	if full.Stats.BoundPruned != 0 {
		t.Errorf("NoPrune search still bound-pruned %d points", full.Stats.BoundPruned)
	}
	if pruned.Stats.Explored+pruned.Stats.BoundPruned != full.Stats.Explored {
		t.Errorf("explored(%d)+boundPruned(%d) != exhaustive explored(%d)",
			pruned.Stats.Explored, pruned.Stats.BoundPruned, full.Stats.Explored)
	}
	if len(traceP) > len(traceF) {
		t.Errorf("pruned trace (%d) longer than exhaustive trace (%d)", len(traceP), len(traceF))
	}
	// The pruned trace is a subsequence of the exhaustive one.
	j := 0
	for _, c := range traceP {
		s := candString(c)
		for j < len(traceF) && candString(traceF[j]) != s {
			j++
		}
		if j == len(traceF) {
			t.Fatalf("pruned-trace candidate %s not found in exhaustive trace order", c.Label())
		}
		j++
	}
}

// TestCacheSharing: the schedule-build cache is shared between the
// checkpointed and plain variants of a grid point and across Search calls.
// Graph-pass output is not cached — within a search no two points share its
// inputs — so a repeat search on the same Tuner runs its prepose rounds again.
func TestCacheSharing(t *testing.T) {
	tn := seqTuner()
	tn.Metrics = telemetry.NewSearchMetrics(telemetry.NewRegistry())
	sp := Space{
		Devices:      8,
		GlobalBatch:  32,
		MicroBatches: []int{2},
		MinPP:        8,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B},
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    3,
		NoPrune:      true,
	}
	if _, _, err := tn.Search(sp); err != nil {
		t.Fatal(err)
	}
	// ckpt ∈ {false, true} share one build: 1 miss + 1 hit.
	if hits, misses := tn.Metrics.BuildHits.Value(), tn.Metrics.BuildMisses.Value(); hits != 1 || misses != 1 {
		t.Errorf("expected build-cache sharing, got hits=%d misses=%d", hits, misses)
	}
	rounds := tn.Metrics.GraphRounds.Value()
	if rounds == 0 {
		t.Fatal("the checkpointed point ran no prepose round")
	}
	// A second identical search is served from the build cache and re-runs
	// the graph passes.
	if _, _, err := tn.Search(sp); err != nil {
		t.Fatal(err)
	}
	if hits, misses := tn.Metrics.BuildHits.Value(), tn.Metrics.BuildMisses.Value(); hits != 3 || misses != 1 {
		t.Errorf("repeat search: build cache hits=%d misses=%d, want 3 and 1", hits, misses)
	}
	if got := tn.Metrics.GraphRounds.Value(); got != 2*rounds {
		t.Errorf("repeat search ran %d prepose rounds, want the first search's %d again", got-rounds, rounds)
	}
}

// pointOf maps a candidate back to the grid point its coordinates name.
func pointOf(c Candidate) gridPoint {
	return gridPoint{scheme: c.Scheme, ckpt: c.Ckpt, pp: c.PP, dp: c.DP, mbs: c.MicroBatch, pmode: c.PlaceMode}
}

// compareRuns demands byte-identical outputs: stats, best, the full trace
// in order and the Progress callback sequence.
func compareRuns(t *testing.T, name string, got, want searchRun) {
	t.Helper()
	if got.stats != want.stats {
		t.Errorf("%s: stats %+v, want %+v", name, got.stats, want.stats)
	}
	if got.best != want.best {
		t.Errorf("%s: best differs\n got: %s\nwant: %s", name, got.best, want.best)
	}
	if len(got.trace) != len(want.trace) {
		t.Fatalf("%s: trace length %d, want %d", name, len(got.trace), len(want.trace))
	}
	for i := range got.trace {
		if got.trace[i] != want.trace[i] {
			t.Errorf("%s: trace[%d] differs\n got: %s\nwant: %s", name, i, got.trace[i], want.trace[i])
			break
		}
	}
	if len(got.progress) != len(want.progress) {
		t.Fatalf("%s: %d progress callbacks, want %d", name, len(got.progress), len(want.progress))
	}
	for i := range got.progress {
		if got.progress[i] != want.progress[i] {
			t.Errorf("%s: progress[%d] = %q, want %q", name, i, got.progress[i], want.progress[i])
			break
		}
	}
}

// TestSearchOrderSourceMatrix pins the driver's two independent choices
// against each other: for every expansion order, both outcome sources —
// inline and the worker pool — emit the byte-identical best candidate, trace,
// SearchStats and Progress sequence, and across orders the best candidate and
// the invariant digest agree.
func TestSearchOrderSourceMatrix(t *testing.T) {
	for _, space := range []struct {
		name string
		sp   Space
	}{{"detSpace", detSpace()}, {"memPressure", memPressureSpace(t)}} {
		t.Run(space.name, func(t *testing.T) {
			var first searchRun
			for i, o := range searchOrders {
				sp := space.sp
				o.set(&sp)
				base := runSpace(t, sp, 1) // inline
				if i == 0 {
					first = base
				}
				if base.best != first.best {
					t.Errorf("%s: best differs from %s\n got: %s\nwant: %s", o.name, searchOrders[0].name, base.best, first.best)
				}
				gp, gf := base.stats.invariant()
				if wp, wf := first.stats.invariant(); gp != wp || gf != wf {
					t.Errorf("%s: invariant digest (%d,%d), want (%d,%d)", o.name, gp, gf, wp, wf)
				}
				for _, w := range []int{2, 4} {
					compareRuns(t, fmt.Sprintf("%s/workers=%d", o.name, w), runSpace(t, sp, w), base)
				}
			}
		})
	}
}

// TestFleetSpanTreeShapeIndependent: the span tree (canonical JSONL and
// Chrome exports, tree rendering) is byte-identical for every outcome
// source, because the merge loop alone attaches point spans and synthesizes
// the pruned ones.
func TestFleetSpanTreeShapeIndependent(t *testing.T) {
	trace := func(workers int) (string, string, string) {
		t.Helper()
		tn := newTuner()
		tn.Workers = workers
		tracer := telemetry.New("source-fingerprint")
		tn.Span = tracer.Root(telemetry.PhaseOptimize, "")
		if _, _, err := tn.Search(detSpace()); err != nil {
			t.Fatalf("Search(workers=%d): %v", workers, err)
		}
		tn.Span.End()
		tr := tracer.Snapshot()
		return string(tr.JSONL()), string(tr.ChromeTrace()), tr.Tree()
	}
	baseJSONL, baseChrome, baseTree := trace(1)
	if baseJSONL == "" {
		t.Fatal("inline search produced an empty JSONL trace")
	}
	for _, w := range []int{2, 4} {
		jsonl, chrome, tree := trace(w)
		if jsonl != baseJSONL {
			t.Errorf("JSONL trace differs between inline and workers=%d:\n--- inline\n%s\n--- workers=%d\n%s",
				w, baseJSONL, w, jsonl)
		}
		if chrome != baseChrome {
			t.Errorf("canonical Chrome trace differs between inline and workers=%d", w)
		}
		if tree != baseTree {
			t.Errorf("tree rendering differs between inline and workers=%d:\n--- inline\n%s\n--- workers=%d\n%s",
				w, baseTree, w, tree)
		}
	}
}

// checkRegistryMatchesStats demands that the registry series of a tuner
// whose Metrics saw exactly one search equal that search's SearchStats —
// completed or not.
func checkRegistryMatchesStats(t *testing.T, tn *Tuner) {
	t.Helper()
	m, st := tn.Metrics, tn.Stats
	for _, c := range []struct {
		name string
		got  int64
		want int
	}{
		{"points explored", m.PointsExplored.Value(), st.Explored},
		{"points oom", m.PointsOOM.Value(), st.OOMRejected},
		{"points infeasible", m.PointsPruned.Value(), st.Pruned},
		{"points bound_pruned", m.PointsBoundPruned.Value(), st.BoundPruned},
		{"points memory_pruned", m.PointsMemPruned.Value(), st.MemPruned},
		{"improved", m.PointsImproved.Value(), st.Improved},
	} {
		if c.got != int64(c.want) {
			t.Errorf("registry series %q = %d, Stats says %d", c.name, c.got, c.want)
		}
	}
}
