package tuner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/profile"
	"mario/internal/telemetry"
)

// fleetHarness is an in-process ShardDispatcher backed by real worker
// Tuners: each fleet member is a fresh Tuner with its own memo caches (a
// faithful model of a remote worker, which shares nothing with the
// coordinator). Shards map to members round-robin, and dispatch failures
// can be injected per shard to exercise the local-fallback path.
type fleetHarness struct {
	space   Space
	members []*Tuner
	shards  int
	chunk   int
	// noShare drops the incumbent before evaluating — the benchmarking
	// control that shows what incumbent-bound sharing saves.
	noShare bool

	mu       sync.Mutex
	failures map[int]int // shard -> remaining injected dispatch errors
}

// newHarness builds a harness with nworkers members created by mk.
func newHarness(sp Space, mk func() *Tuner, nworkers, shards, chunk int) *fleetHarness {
	h := &fleetHarness{space: sp, shards: shards, chunk: chunk, failures: map[int]int{}}
	for i := 0; i < nworkers; i++ {
		h.members = append(h.members, mk())
	}
	return h
}

func (h *fleetHarness) Shards() int    { return h.shards }
func (h *fleetHarness) ChunkSize() int { return h.chunk }

func (h *fleetHarness) Dispatch(ctx context.Context, shard int, pts []ShardPoint, inc float64, hasInc bool) ([]ShardOutcome, error) {
	h.mu.Lock()
	if n := h.failures[shard]; n > 0 {
		h.failures[shard] = n - 1
		h.mu.Unlock()
		return nil, errors.New("injected worker failure")
	}
	h.mu.Unlock()
	if h.noShare {
		inc, hasInc = 0, false
	}
	w := h.members[shard%len(h.members)]
	return w.EvalShard(ctx, h.space, pts, inc, hasInc)
}

// runFleet mirrors runSpace but routes the search through a dispatcher and
// also returns the settled fleet counters.
func runFleet(t *testing.T, sp Space, h ShardDispatcher, mut func(*Tuner)) (searchRun, FleetStats) {
	t.Helper()
	tn := newTuner()
	tn.Sharder = h
	if mut != nil {
		mut(tn)
	}
	run := capture(t, tn, sp)
	return run, tn.FleetSnapshot()
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

// fleetShapes is the shard-protocol test matrix from the PR: workers ×
// shards ∈ {1×1, 1×4, 4×2}, with a chunk small enough that detSpace spans
// several waves.
var fleetShapes = []struct {
	name            string
	workers, shards int
	chunk           int
}{
	{"1x1", 1, 1, 3},
	{"1x4", 1, 4, 2},
	{"4x2", 4, 2, 3},
}

// TestFleetByteIdentity is the tentpole contract: a fleet-distributed
// search emits the byte-identical best candidate, trace, SearchStats and
// Progress sequence as the single-node branch-and-bound search, for every
// fleet shape — on both a plain space and one engineered for memory
// pruning.
func TestFleetByteIdentity(t *testing.T) {
	spaces := []struct {
		name string
		sp   Space
	}{
		{"detSpace", detSpace(1)},
		{"memPressure", memPressureSpace(t)},
		{"hetero", heteroSpace(1)},
	}
	for _, s := range spaces {
		t.Run(s.name, func(t *testing.T) {
			base := runSpace(t, s.sp, nil) // single-node bnb baseline
			if base.stats.Explored == 0 {
				t.Fatal("baseline explored nothing")
			}
			for _, sh := range fleetShapes {
				h := newHarness(s.sp, newTuner, sh.workers, sh.shards, sh.chunk)
				got, fl := runFleet(t, s.sp, h, nil)
				compareRuns(t, sh.name, got, base)
				if fl.Dispatched == 0 || fl.Waves == 0 {
					t.Errorf("%s: nothing dispatched: %+v", sh.name, fl)
				}
				if fl.Fallbacks != 0 || fl.Forced != 0 {
					t.Errorf("%s: healthy fleet reported fallbacks/forced: %+v", sh.name, fl)
				}
			}
		})
	}
}

// TestSearchOrderSourceMatrix pins the driver's two independent choices
// against each other: for every expansion order, every outcome source —
// inline, the worker pool, and a fleet that is 1×1, 3×2 or always failing
// (so every batch falls back to the coordinator) — emits the byte-identical
// best candidate, trace, SearchStats and Progress sequence; across orders the
// best candidate and the invariant digest agree; and a sharder is used
// whatever the order.
func TestSearchOrderSourceMatrix(t *testing.T) {
	fleets := []struct {
		name            string
		workers, shards int
		chunk           int
		down            bool
	}{
		{name: "1x1", workers: 1, shards: 1, chunk: 3},
		{name: "3x2", workers: 3, shards: 2, chunk: 4},
		{name: "down", workers: 1, shards: 2, chunk: 3, down: true},
	}
	for _, space := range []struct {
		name string
		sp   Space
	}{{"detSpace", detSpace(1)}, {"memPressure", memPressureSpace(t)}} {
		t.Run(space.name, func(t *testing.T) {
			var first searchRun
			for i, o := range searchOrders {
				sp := space.sp
				o.set(&sp)
				base := runSpace(t, sp, nil) // Workers 1, no sharder
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
				for _, w := range []int{1, 4} {
					spw := sp
					spw.Workers = w
					if w > 1 {
						compareRuns(t, fmt.Sprintf("%s/workers=%d", o.name, w), runSpace(t, spw, nil), base)
					}
					for _, f := range fleets {
						name := fmt.Sprintf("%s/workers=%d/%s", o.name, w, f.name)
						h := newHarness(spw, newTuner, f.workers, f.shards, f.chunk)
						if f.down {
							for s := 0; s < f.shards; s++ {
								h.failures[s] = math.MaxInt
							}
						}
						got, fl := runFleet(t, spw, h, nil)
						compareRuns(t, name, got, base)
						if fl.Dispatched == 0 {
							t.Errorf("%s: the sharder was not used: %+v", name, fl)
						}
						if f.down != (fl.Fallbacks == fl.Dispatched) || fl.Forced != 0 {
							t.Errorf("%s: fallbacks/forced do not match the fleet's health: %+v", name, fl)
						}
					}
				}
			}
		})
	}
}

// TestFleetSpanTreeShapeIndependent: the synthesized span tree (canonical
// JSONL and Chrome exports, tree rendering) is byte-identical for every
// fleet shape, because point spans are built purely from merge outcomes.
func TestFleetSpanTreeShapeIndependent(t *testing.T) {
	sp := detSpace(1)
	trace := func(workers, shards, chunk int) (string, string, string) {
		t.Helper()
		tn := newTuner()
		tn.Sharder = newHarness(sp, newTuner, workers, shards, chunk)
		tracer := telemetry.New("fleet-fingerprint")
		tn.Span = tracer.Root(telemetry.PhaseOptimize, "")
		if _, _, err := tn.Search(sp); err != nil {
			t.Fatalf("fleet Search(%dx%d): %v", workers, shards, err)
		}
		tn.Span.End()
		tr := tracer.Snapshot()
		return string(tr.JSONL()), string(tr.ChromeTrace()), tr.Tree()
	}
	baseJSONL, baseChrome, baseTree := trace(1, 1, 3)
	if baseJSONL == "" {
		t.Fatal("fleet search produced an empty JSONL trace")
	}
	for _, sh := range fleetShapes[1:] {
		jsonl, chrome, tree := trace(sh.workers, sh.shards, sh.chunk)
		if jsonl != baseJSONL {
			t.Errorf("JSONL trace differs between 1x1 and %s:\n--- 1x1\n%s\n--- %s\n%s",
				sh.name, baseJSONL, sh.name, jsonl)
		}
		if chrome != baseChrome {
			t.Errorf("canonical Chrome trace differs between 1x1 and %s", sh.name)
		}
		if tree != baseTree {
			t.Errorf("tree rendering differs between 1x1 and %s:\n--- 1x1\n%s\n--- %s\n%s",
				sh.name, baseTree, sh.name, tree)
		}
	}
}

// TestFleetWorkerFailure kills shards mid-search (every shape loses its
// first dispatch on shard 0, the 4x2 case loses several) and demands the
// byte-identical result: the coordinator's local fallback makes the merged
// search independent of fleet health, and only FleetStats shows the damage.
func TestFleetWorkerFailure(t *testing.T) {
	sp := detSpace(1)
	base := runSpace(t, sp, nil)
	cases := []struct {
		name     string
		shape    int // index into fleetShapes
		failures map[int]int
	}{
		{"first-dispatch-lost", 1, map[int]int{0: 1}},
		{"worker-down-hard", 2, map[int]int{0: 3, 1: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := fleetShapes[tc.shape]
			h := newHarness(sp, newTuner, sh.workers, sh.shards, sh.chunk)
			for s, n := range tc.failures {
				h.failures[s] = n
			}
			var tn *Tuner
			got, fl := runFleet(t, sp, h, func(c *Tuner) {
				tn = c
				c.Metrics = telemetry.NewSearchMetrics(telemetry.NewRegistry())
			})
			compareRuns(t, tc.name, got, base)
			if fl.Fallbacks == 0 {
				t.Errorf("no fallbacks recorded despite injected failures: %+v", fl)
			}
			if fl.Forced != 0 {
				t.Errorf("fallback path forced local re-evaluations: %+v", fl)
			}
			checkRegistryMatchesSnapshots(t, tn)
		})
	}
}

// checkRegistryMatchesSnapshots demands that the registry series of a tuner
// whose Metrics saw exactly one search equal that search's SearchStats and
// FleetStats — completed or not.
func checkRegistryMatchesSnapshots(t *testing.T, tn *Tuner) {
	t.Helper()
	m, st, fl := tn.Metrics, tn.StatsSnapshot(), tn.FleetSnapshot()
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
		{"fleet waves", m.FleetWaves.Value(), fl.Waves},
		{"fleet broadcasts", m.FleetBroadcasts.Value(), fl.Broadcasts},
		{"fleet shards", m.FleetDispatched.Value(), fl.Dispatched},
		{"fleet fallbacks", m.FleetFallbacks.Value(), fl.Fallbacks},
		{"fleet explored", m.FleetRemoteExplored.Value(), fl.RemoteExplored},
		{"fleet skipped", m.FleetRemoteSkipped.Value(), fl.RemoteSkipped},
		{"fleet infeasible", m.FleetRemoteInfeasible.Value(), fl.RemoteInfeasible},
		{"fleet forced", m.FleetForced.Value(), fl.Forced},
	} {
		if c.got != int64(c.want) {
			t.Errorf("registry series %q = %d, snapshot says %d", c.name, c.got, c.want)
		}
	}
}

// batchLocalSkips derives, from first principles, how many points a fleet
// without incumbent broadcast must skip: it replays the dispatch geometry
// (sorted nodes in waves of shards×chunk, position j of a wave to shard
// j mod shards) over the probe pass's bounds and the exhaustive walk's
// throughputs, and counts the points a batch's own running incumbent dooms —
// bound strictly below it, or provably OOM once it is positive. Nothing else
// may skip a point when no incumbent is shipped.
func batchLocalSkips(t *testing.T, mk func() *Tuner, sp Space, shards, chunk int) int {
	t.Helper()
	tn := mk()
	full := sp
	full.NoPrune = true
	_, trace, err := tn.Search(full)
	if err != nil {
		t.Fatal(err)
	}
	thr := make(map[gridPoint]float64, len(trace))
	for _, c := range trace {
		thr[pointOf(c)] = c.Throughput
	}
	spd := sp.WithDefaults()
	var stats SearchStats
	nodes, err := tn.probeAll(context.Background(), spd, enumerate(spd), nil, telemetry.Span{}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	skips := 0
	stride := shards * chunk
	for start := 0; start < len(nodes); start += stride {
		end := min(start+stride, len(nodes))
		for s := 0; s < shards; s++ {
			inc, hasInc := 0.0, false
			for j := start + s; j < end; j += shards {
				nd := nodes[j]
				if hasInc && ((nd.doomed && inc > 0) || nd.ub < inc) {
					skips++
					continue
				}
				v, ok := thr[nd.p]
				if !ok {
					t.Fatalf("probed node %s missing from the exhaustive trace", pointKey(nd.idx, nd.p))
				}
				if !hasInc || v > inc {
					inc, hasInc = v, true
				}
			}
		}
	}
	return skips
}

// TestFleetNoShareByteIdentity: disabling incumbent broadcast (the
// benchmarking control) costs work, never correctness — the merged outputs
// are still byte-identical to the single-node search, and the only points a
// worker skips are the ones its own batch's incumbent dooms.
func TestFleetNoShareByteIdentity(t *testing.T) {
	sp := detSpace(1)
	base := runSpace(t, sp, nil)
	h := newHarness(sp, newTuner, 2, 4, 2)
	h.noShare = true
	got, fl := runFleet(t, sp, h, nil)
	compareRuns(t, "no-share", got, base)
	if want := batchLocalSkips(t, newTuner, sp, 4, 2); fl.RemoteSkipped != want {
		t.Errorf("no-share fleet skipped %d points remotely, batch-local incumbents account for %d", fl.RemoteSkipped, want)
	}
}

// TestFleetProtocolViolationForced: a dispatcher that skips points the
// incumbent cannot justify (here: skipping everything) must not corrupt
// the search — the merge re-evaluates unconfirmed skips locally, counts
// them in FleetStats.Forced, and still emits the baseline bytes.
func TestFleetProtocolViolationForced(t *testing.T) {
	sp := detSpace(1)
	base := runSpace(t, sp, nil)
	h := newHarness(sp, newTuner, 1, 2, 3)
	run, fl := runFleet(t, sp, &skipAllDispatcher{h}, nil)
	compareRuns(t, "skip-all", run, base)
	if fl.Forced == 0 {
		t.Errorf("protocol violation went unnoticed: %+v", fl)
	}
}

// skipAllDispatcher violates the skip protocol: every point comes back
// ShardSkipped regardless of the incumbent.
type skipAllDispatcher struct{ *fleetHarness }

func (d *skipAllDispatcher) Dispatch(ctx context.Context, shard int, pts []ShardPoint, inc float64, hasInc bool) ([]ShardOutcome, error) {
	out := make([]ShardOutcome, len(pts))
	for i, p := range pts {
		out[i] = ShardOutcome{Idx: p.Idx, Status: ShardSkipped}
	}
	return out, nil
}

// TestFleetMisattributedOutcomeForced: a dispatcher whose outcomes carry the
// candidates of other points than their indices name (here: the first two
// explored outcomes of the first batch, swapped) must not get either candidate
// merged under the wrong grid index. The source drops an outcome that does not
// describe its node, the merge evaluates the two nodes itself — NoPrune makes
// it need both — and the search still emits the baseline bytes.
func TestFleetMisattributedOutcomeForced(t *testing.T) {
	sp := detSpace(1)
	sp.NoPrune = true
	base := runSpace(t, sp, nil)
	got, fl := runFleet(t, sp, &swapDispatcher{fleetHarness: newHarness(sp, newTuner, 1, 1, 4)}, nil)
	compareRuns(t, "swapped", got, base)
	if fl.Forced != 2 {
		t.Errorf("forced %d local evaluations, want the 2 swapped nodes: %+v", fl.Forced, fl)
	}
}

// swapDispatcher answers its first batch with the candidates of the first two
// explored outcomes exchanged.
type swapDispatcher struct {
	*fleetHarness
	swapped bool // one shard, so Dispatch is never concurrent
}

func (d *swapDispatcher) Dispatch(ctx context.Context, shard int, pts []ShardPoint, inc float64, hasInc bool) ([]ShardOutcome, error) {
	out, err := d.fleetHarness.Dispatch(ctx, shard, pts, inc, hasInc)
	if err == nil && !d.swapped && len(out) >= 2 && out[0].Cand != nil && out[1].Cand != nil {
		out[0].Cand, out[1].Cand = out[1].Cand, out[0].Cand
		d.swapped = true
	}
	return out, err
}

// TestFleetDisagreeingWinnerFails: the coordinator keeps no schedule but its
// winner's and rebuilds that one itself, so a worker whose winning candidate
// the coordinator cannot reproduce — here every worker reports half the
// makespan and twice the throughput — fails the search loudly instead of
// putting its numbers into a plan.
func TestFleetDisagreeingWinnerFails(t *testing.T) {
	sp := detSpace(1)
	tn := newTuner()
	tn.Sharder = &boastingDispatcher{newHarness(sp, newTuner, 1, 1, 4)}
	best, _, err := tn.Search(sp)
	if err == nil || !strings.Contains(err.Error(), "differs from the stored one") {
		t.Fatalf("search with a disagreeing worker returned %v, %v; want a re-simulation refusal", best, err)
	}
}

// boastingDispatcher reports every explored candidate at twice its speed.
type boastingDispatcher struct{ *fleetHarness }

func (d *boastingDispatcher) Dispatch(ctx context.Context, shard int, pts []ShardPoint, inc float64, hasInc bool) ([]ShardOutcome, error) {
	out, err := d.fleetHarness.Dispatch(ctx, shard, pts, inc, hasInc)
	for _, oc := range out {
		if oc.Cand != nil {
			res := *oc.Cand.Result
			res.Total /= 2
			res.SamplesPerSec *= 2
			oc.Cand.Result, oc.Cand.Throughput = &res, oc.Cand.Throughput*2
		}
	}
	return out, err
}

// TestFleetIncumbentSharingReduces pins the perf acceptance criterion on
// the paper's 64-device GPT3-13B grid: with incumbent-bound sharing the
// fleet simulates strictly fewer points than the same fleet without it
// (which must evaluate every structurally feasible point), while both
// produce the byte-identical merged outputs of the single-node
// branch-and-bound search. The absolute counts land in EXPERIMENTS.md.
func TestFleetIncumbentSharingReduces(t *testing.T) {
	if testing.Short() {
		t.Skip("large grid; skipped with -short")
	}
	prof := &profile.Profiler{
		Model: cost.GPT3_13B, HW: cost.A100_40G,
		Spec: profile.DefaultMachine, Devices: 4, Iters: 4,
	}
	mk := func() *Tuner { return &Tuner{Prof: prof, MaxRounds: 1} }
	space := Space{
		Devices:      64,
		GlobalBatch:  512,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave, pipeline.SchemeGPipe},
		MicroBatches: []int{1, 2, 4, 8, 16, 32},
		DeviceMem:    cost.A100_40G.MemBytes,
		Workers:      runtime.GOMAXPROCS(0),
	}

	// Single-node bnb baseline.
	baseTn := mk()
	baseBest, _, err := baseTn.Search(space)
	if err != nil {
		t.Fatal(err)
	}
	baseStr := candString(*baseBest)

	run := func(noShare bool) (string, SearchStats, FleetStats) {
		h := newHarness(space, mk, 4, 2, DefaultShardChunk)
		h.noShare = noShare
		tn := mk()
		tn.Sharder = h
		best, _, err := tn.Search(space)
		if err != nil {
			t.Fatal(err)
		}
		return candString(*best), tn.Stats, tn.FleetSnapshot()
	}

	sharedBest, sharedStats, shared := run(false)
	soloBest, soloStats, solo := run(true)

	for _, c := range []struct {
		name string
		best string
		st   SearchStats
	}{{"shared", sharedBest, sharedStats}, {"no-share", soloBest, soloStats}} {
		if c.best != baseStr {
			t.Errorf("%s fleet argmax differs from single-node bnb:\n got: %s\nwant: %s", c.name, c.best, baseStr)
		}
		if c.st != baseTn.Stats {
			t.Errorf("%s fleet stats %+v, want %+v", c.name, c.st, baseTn.Stats)
		}
	}

	evals := func(fl FleetStats) int { return fl.RemoteExplored + fl.Forced }
	t.Logf("single-node bnb explored %d of %d feasible; fleet evaluated %d with sharing (%d skipped remotely), %d without",
		baseTn.Stats.Explored, baseTn.Stats.Explored+baseTn.Stats.BoundPruned+baseTn.Stats.MemPruned,
		evals(shared), shared.RemoteSkipped, evals(solo))
	if shared.Forced != 0 || solo.Forced != 0 {
		t.Errorf("forced local evaluations: shared=%d solo=%d", shared.Forced, solo.Forced)
	}
	if shared.RemoteSkipped == 0 {
		t.Error("incumbent sharing skipped nothing remotely")
	}
	if evals(shared) >= evals(solo) {
		t.Errorf("incumbent sharing did not reduce fleet evaluations: %d with sharing, %d without",
			evals(shared), evals(solo))
	}
	// Without a broadcast incumbent every dispatched point is either
	// evaluated or skipped by a worker's batch-local incumbent — nothing
	// else may drop points.
	if want := baseTn.Stats.Explored + baseTn.Stats.BoundPruned + baseTn.Stats.MemPruned; evals(solo)+solo.RemoteSkipped != want {
		t.Errorf("no-share fleet accounted for %d points (%d evaluated + %d batch-local skips), want %d",
			evals(solo)+solo.RemoteSkipped, evals(solo), solo.RemoteSkipped, want)
	}
	if want := batchLocalSkips(t, mk, space, 2, DefaultShardChunk); solo.RemoteSkipped != want {
		t.Errorf("no-share fleet skipped %d points remotely, batch-local incumbents account for %d", solo.RemoteSkipped, want)
	}
	// With the broadcast, a worker starts every batch from the merged
	// incumbent, so it skips at least what its batch alone would have.
	if shared.RemoteSkipped < solo.RemoteSkipped {
		t.Errorf("incumbent sharing skipped %d points remotely, fewer than the %d batch-local skips without it",
			shared.RemoteSkipped, solo.RemoteSkipped)
	}
}

// TestEvalShardValidation covers the worker-side error paths: an index
// outside the grid and a degenerate space are rejected, and a cancelled
// context aborts the batch.
func TestEvalShardValidation(t *testing.T) {
	tn := newTuner()
	sp := detSpace(1)
	if _, err := tn.EvalShard(context.Background(), sp, []ShardPoint{{Idx: 1 << 20}}, 0, false); err == nil {
		t.Error("out-of-grid index accepted")
	}
	if _, err := tn.EvalShard(context.Background(), Space{}, nil, 0, false); err == nil {
		t.Error("degenerate space accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tn.EvalShard(ctx, sp, []ShardPoint{{Idx: 0}}, 0, false); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch returned %v, want context.Canceled", err)
	}
	// A batch that fails midway still accounts for the simulations it ran.
	tn.Metrics = telemetry.NewSearchMetrics(telemetry.NewRegistry())
	if _, err := tn.EvalShard(context.Background(), sp, []ShardPoint{{Idx: 0, Unbounded: true}, {Idx: 1 << 20}}, 0, false); err == nil {
		t.Error("batch with an out-of-grid index accepted")
	}
	if tn.Metrics.Sims.Value() == 0 {
		t.Error("a failed batch dropped its simulations from the sims counter")
	}
}

// TestShardPointWire pins the wire form: an infinite bound round-trips
// through the Unbounded flag (JSON cannot carry +Inf) and ub() restores it.
func TestShardPointWire(t *testing.T) {
	nd := bnbNode{idx: 7, ub: math.Inf(1), memLB: 42}
	sp := shardPointOf(nd)
	if !sp.Unbounded || sp.UB != 0 {
		t.Errorf("infinite bound encoded as %+v", sp)
	}
	if !math.IsInf(sp.ub(), 1) {
		t.Errorf("ub() = %g, want +Inf", sp.ub())
	}
	fin := shardPointOf(bnbNode{idx: 3, ub: 12.5, memLB: 1, doomed: true})
	if fin.Unbounded || fin.UB != 12.5 || !fin.Doomed {
		t.Errorf("finite bound encoded as %+v", fin)
	}
	if fin.ub() != 12.5 {
		t.Errorf("ub() = %g, want 12.5", fin.ub())
	}
}
