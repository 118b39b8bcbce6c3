package tuner

import (
	"context"
	"fmt"
	"math"
	"sync"

	"mario/internal/graph"
	"mario/internal/telemetry"
)

// This file is the fleet outcome source of the search driver (Tuner.search)
// and the worker half of its protocol. The coordinator runs the probe pass and
// the merge loop exactly as a local search does; only the evaluation of the
// ordered nodes moves out, in waves of shard batches through a
// ShardDispatcher — an HTTP fan-out in production (internal/serve), an
// in-process evaluator in tests. Each wave ships the merged incumbent
// throughput so workers skip shard points it already dooms.
//
// Because the merge loop re-decides every node against its own incumbent, the
// best candidate, the trace, the SearchStats and the span tree are
// byte-identical for every fleet shape (workers × shards, including 1×1) and
// the marshaled plan is byte-identical to a single-node run. Worker-side
// skips are exact for the reason pool-worker skips are: a shipped or
// batch-local incumbent is the true throughput of a candidate that is merged
// before every node it rules out (bnbNode.dominatedBy), so the merge loop's
// incumbent always confirms the skip; the unreachable disagreement case falls
// back to a local evaluation.

// DefaultShardChunk is the number of ordered nodes a shard receives per
// dispatch wave when the dispatcher does not choose its own batch size.
// Small enough that the incumbent refreshes while the search is still
// exploring high-bound nodes, large enough to amortize a dispatch
// round-trip.
const DefaultShardChunk = 8

// Shard outcome statuses (ShardOutcome.Status).
const (
	// ShardExplored marks a fully simulated point; the outcome carries the
	// candidate.
	ShardExplored = "explored"
	// ShardSkipped marks a point the worker declined to simulate because
	// the dispatched incumbent already doomed it (bound below the
	// incumbent, or provably OOM while the incumbent is positive).
	ShardSkipped = "skipped"
	// ShardInfeasible marks a point whose full evaluation failed even
	// though the coordinator's probe passed (a graph-pass error); the
	// merge counts it as a structural prune, as it does for a local one.
	ShardInfeasible = "infeasible"
)

// ShardPoint is one probed, structurally feasible grid point a coordinator
// ships to a worker: the canonical grid index plus the admissible bounds
// the probe pass computed. Bounds travel with the point so workers prune
// against the shared incumbent without re-probing. The type is wire-safe:
// an infinite upper bound (no useful bound) is carried as Unbounded
// rather than +Inf, which JSON cannot encode.
type ShardPoint struct {
	// Idx is the canonical grid index (the point's enumerate position).
	Idx int `json:"idx"`
	// UB is the admissible throughput upper bound (throughputBound); zero with
	// Unbounded set when the bound is infinite.
	UB float64 `json:"ub"`
	// Unbounded marks points whose throughput bound is +Inf.
	Unbounded bool `json:"unbounded,omitempty"`
	// MemLB is the admissible per-device memory lower bound.
	MemLB float64 `json:"mem_lb"`
	// Doomed marks points whose MemLB already exceeds the device budget:
	// their simulated throughput is provably zero.
	Doomed bool `json:"doomed,omitempty"`
}

// shardPointOf converts a probed node into its wire form.
func shardPointOf(nd bnbNode) ShardPoint {
	sp := ShardPoint{Idx: nd.idx, UB: nd.ub, MemLB: nd.memLB, Doomed: nd.doomed}
	if math.IsInf(sp.UB, 1) {
		sp.UB, sp.Unbounded = 0, true
	}
	return sp
}

// pointOf maps a candidate back to the grid point its coordinates name.
func pointOf(c Candidate) gridPoint {
	return gridPoint{scheme: c.Scheme, ckpt: c.Ckpt, pp: c.PP, dp: c.DP, mbs: c.MicroBatch, pmode: c.PlaceMode}
}

// ub returns the node-side view of the bound (+Inf when Unbounded).
func (p ShardPoint) ub() float64 {
	if p.Unbounded {
		return math.Inf(1)
	}
	return p.UB
}

// ShardOutcome is a worker's verdict on one dispatched shard point.
type ShardOutcome struct {
	// Idx echoes the point's canonical grid index.
	Idx int `json:"idx"`
	// Status is ShardExplored, ShardSkipped or ShardInfeasible.
	Status string `json:"status"`
	// Cand is the simulated candidate (ShardExplored only): coordinates,
	// placement assignment and result totals — no timeline and no schedule,
	// which is what a search's trace keeps of any candidate. It round-trips
	// byte-stably through the plan JSON codec, so a merged remote candidate
	// marshals identically to a locally computed one; should it win, the
	// coordinator's closing Resimulate rebuilds its schedule and refuses the
	// outcome unless its totals are reproduced bit for bit.
	Cand *Candidate `json:"cand,omitempty"`
}

// ShardDispatcher fans shard batches out to a planning fleet. Implementations
// must be safe for concurrent Dispatch calls (the coordinator dispatches the
// shards of one wave in parallel). Dispatch errors are not fatal: the
// coordinator evaluates the failed batch locally, so the search result is
// independent of fleet health.
type ShardDispatcher interface {
	// Shards is the number of partitions per wave (usually the worker
	// count); values < 1 mean 1.
	Shards() int
	// ChunkSize is the number of ordered nodes per shard per wave; values
	// < 1 mean DefaultShardChunk.
	ChunkSize() int
	// Dispatch evaluates one shard's batch, in the given order, pruning
	// against the dispatched incumbent (hasIncumbent reports whether one
	// exists yet). It returns one outcome per point, keyed by Idx.
	Dispatch(ctx context.Context, shard int, points []ShardPoint, incumbent float64, hasIncumbent bool) ([]ShardOutcome, error)
}

// FleetStats describes how the most recent fleet search divided its work.
// Unlike SearchStats these counters depend on the fleet shape (more shards
// mean staler incumbents and more remote explorations), so they are kept
// out of the plan JSON — plans stay byte-identical to a single-node run —
// and exported as mario_search_fleet_* series instead.
type FleetStats struct {
	// Waves counts dispatch rounds; Broadcasts the waves that shipped a
	// global incumbent to the workers.
	Waves, Broadcasts int
	// Dispatched counts shard batches handed to the dispatcher and
	// Fallbacks the batches the coordinator evaluated locally after a
	// dispatch error.
	Dispatched, Fallbacks int
	// RemoteExplored, RemoteSkipped and RemoteInfeasible count shard-point
	// outcomes by status. RemoteSkipped is the incumbent-sharing payoff:
	// points a worker never simulated because the broadcast incumbent
	// already doomed them.
	RemoteExplored, RemoteSkipped, RemoteInfeasible int
	// Forced counts skipped outcomes the merge loop could not confirm and
	// re-evaluated locally. Always zero for a dispatcher that follows the
	// skip protocol; the counter exists to make violations visible.
	Forced int
}

// FleetSnapshot returns a consistent copy of the fleet counters; the
// race-safe read while a search is running.
func (t *Tuner) FleetSnapshot() FleetStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.Fleet
}

func (t *Tuner) publishFleet(f FleetStats) {
	t.statsMu.Lock()
	t.Fleet = f
	t.statsMu.Unlock()
}

// EvalShard is the worker half of the fleet protocol: it evaluates one
// dispatched batch in order, skipping points the incumbent dooms
// (bnbNode.dominatedBy) and advancing a batch-local incumbent as it explores.
// It touches neither SearchStats nor spans — outcome accounting is the
// coordinator's job, so worker results are position-independent — and it
// returns candidates without their schedules: the coordinator keeps none but
// its winner's, and rebuilds that one itself. Simulations run before an early
// return (cancellation, a bad index) still count in mario_search_sims.
func (t *Tuner) EvalShard(ctx context.Context, space Space, points []ShardPoint, incumbent float64, hasIncumbent bool) ([]ShardOutcome, error) {
	space, grid, err := gridOf(space)
	if err != nil {
		return nil, err
	}
	eng := graph.NewEngines()
	defer eng.Report(t.Metrics)
	out := make([]ShardOutcome, 0, len(points))
	inc, hasInc := incumbent, hasIncumbent
	for _, sp := range points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sp.Idx < 0 || sp.Idx >= len(grid) {
			return nil, fmt.Errorf("tuner: shard point index %d outside grid of %d points", sp.Idx, len(grid))
		}
		if hasInc && (bnbNode{ub: sp.ub(), doomed: sp.Doomed}).dominatedBy(inc) {
			out = append(out, ShardOutcome{Idx: sp.Idx, Status: ShardSkipped})
			continue
		}
		pr := t.evalPoint(ctx, space, grid[sp.Idx], eng, telemetry.Span{})
		if pr.err != nil {
			return nil, pr.err
		}
		if pr.cand == nil {
			out = append(out, ShardOutcome{Idx: sp.Idx, Status: ShardInfeasible})
			continue
		}
		pr.cand.Schedule = nil
		out = append(out, ShardOutcome{Idx: sp.Idx, Status: ShardExplored, Cand: pr.cand})
		if !hasInc || pr.cand.Throughput > inc {
			inc, hasInc = pr.cand.Throughput, true
		}
	}
	return out, nil
}

// shardSource is the fleet outcome source. The ordered nodes are walked in
// waves of Shards×ChunkSize: when the merge loop asks for the first node of a
// wave, position k of the wave is assigned to shard k mod Shards, every
// non-empty shard batch is dispatched concurrently with the merged incumbent,
// and the outcomes are held until the merge loop has asked for each. A batch
// whose dispatch fails is evaluated here with the same incumbent (EvalShard),
// so the search result never depends on fleet health — only fl does. Nor does
// it depend on a worker answering about the right point: an explored outcome
// whose candidate does not carry the coordinates of the node its index names
// is dropped like a lost one, and the merge loop evaluates the node itself if
// it needs it (FleetStats.Forced).
//
// Note: no fleet-shape attribute lands on any span — the span tree is
// byte-identical for every workers×shards shape, and the shape lives in
// FleetStats and the mario_search_fleet_* series instead.
func (t *Tuner) shardSource(ctx context.Context, space Space, nodes []bnbNode, mb *mergedBest, fl *FleetStats) func(j int) pointResult {
	d := t.Sharder
	shards := max(d.Shards(), 1)
	chunk := d.ChunkSize()
	if chunk < 1 {
		chunk = DefaultShardChunk
	}
	stride := shards * chunk
	var wave map[int]ShardOutcome // the current wave's outcomes by grid index

	dispatch := func(batch []bnbNode) {
		wave = make(map[int]ShardOutcome, len(batch))
		if ctx.Err() != nil {
			return // the merge loop aborts on the first node it asks for
		}
		inc, hasInc := mb.load()
		fl.Waves++
		if hasInc {
			fl.Broadcasts++
		}
		batches := make([][]ShardPoint, shards)
		for k, nd := range batch {
			batches[k%shards] = append(batches[k%shards], shardPointOf(nd))
		}
		results := make([][]ShardOutcome, shards)
		errs := make([]error, shards)
		var wg sync.WaitGroup
		for s := range batches {
			if len(batches[s]) == 0 {
				continue
			}
			fl.Dispatched++
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				results[s], errs[s] = d.Dispatch(ctx, s, batches[s], inc, hasInc)
			}(s)
		}
		wg.Wait()
		for s := range batches {
			ocs := results[s]
			if errs[s] != nil && ctx.Err() == nil {
				// The shard is lost (worker down, wire error): evaluate the
				// batch here with the same incumbent, so the merged result is
				// the one a healthy fleet would have produced. Should that
				// fail too, its outcomes stay missing and the merge loop
				// evaluates — and reports on — the nodes it needs.
				fl.Fallbacks++
				ocs, _ = t.EvalShard(ctx, space, batches[s], inc, hasInc)
			}
			for _, oc := range ocs {
				switch oc.Status {
				case ShardExplored:
					fl.RemoteExplored++
				case ShardSkipped:
					fl.RemoteSkipped++
				case ShardInfeasible:
					fl.RemoteInfeasible++
				}
				wave[oc.Idx] = oc
			}
		}
		t.publishFleet(*fl)
	}

	return func(j int) pointResult {
		if j%stride == 0 {
			dispatch(nodes[j:min(j+stride, len(nodes))])
		}
		p := nodes[j].p
		switch oc := wave[nodes[j].idx]; {
		case oc.Status == ShardExplored && oc.Cand != nil &&
			pointOf(*oc.Cand) == p && oc.Cand.Micros == space.GlobalBatch/(p.mbs*p.dp):
			return pointResult{cand: oc.Cand}
		case oc.Status == ShardInfeasible:
			return pointResult{failed: true}
		}
		// Skipped, or no outcome at all: nothing to merge unless the merge
		// loop's decision is to explore, and then it evaluates the node itself.
		return pointResult{}
	}
}
