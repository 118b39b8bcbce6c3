package tuner

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"mario/internal/sim"
	"mario/internal/telemetry"
)

// This file implements the fleet search strategy: the branch-and-bound
// expansion of bnb.go distributed across a planning fleet. The coordinator
// runs the cheap probe pass once (structural checks, scheme shapes,
// admissible bounds), sorts the feasible nodes best-first exactly like
// searchBnB, and then dispatches waves of shard batches through a
// ShardDispatcher — an HTTP fan-out in production (internal/serve), an
// in-process evaluator in tests. Between waves the coordinator broadcasts
// the global incumbent throughput so workers skip shard points the
// incumbent already dooms.
//
// The strategy preserves every determinism contract of the local search:
// the merge loop consumes outcomes in the same sorted order searchBnB
// uses and re-applies the same decide() classification against the
// canonical incumbent, so the best candidate, the trace, the SearchStats
// and the synthesized span tree are byte-identical for every fleet shape
// (workers × shards, including 1×1) and the marshaled plan is
// byte-identical to a single-node run. Worker-side incumbent skips are
// exact for the same reason worker skips are exact in searchBnB: a
// broadcast incumbent is the true throughput of a candidate whose bound
// sorts it strictly before every node it prunes, so the merge loop's own
// incumbent always confirms the skip; the unreachable disagreement case
// falls back to a local evaluation.

// DefaultShardChunk is the number of sorted nodes a shard receives per
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
	// merge counts it as a structural prune, as the local strategies do.
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
	// Cand is the simulated candidate (ShardExplored only) — schedule and
	// result totals, no timeline, like every candidate a search scores. It
	// round-trips byte-stably through the plan JSON codec, so a merged remote
	// candidate marshals identically to a locally computed one.
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
	// ChunkSize is the number of sorted nodes per shard per wave; values
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
// dispatched batch in order, skipping points the incumbent dooms and
// advancing a batch-local incumbent as it explores. It touches neither
// SearchStats nor spans — outcome accounting is the coordinator's job, so
// worker results are position-independent. The skip predicate is strictly
// conservative (strict <, positive incumbent for doomed points), which is
// what guarantees the coordinator's merge loop confirms every skip.
func (t *Tuner) EvalShard(ctx context.Context, space Space, points []ShardPoint, incumbent float64, hasIncumbent bool) ([]ShardOutcome, error) {
	space = space.withDefaults()
	if space.Devices <= 0 || space.GlobalBatch <= 0 {
		return nil, fmt.Errorf("tuner: devices (%d) and global batch (%d) must be positive", space.Devices, space.GlobalBatch)
	}
	grid := enumerate(space)
	eng := &sim.Simulator{}
	out := make([]ShardOutcome, 0, len(points))
	inc, hasInc := incumbent, hasIncumbent
	for _, sp := range points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sp.Idx < 0 || sp.Idx >= len(grid) {
			return nil, fmt.Errorf("tuner: shard point index %d outside grid of %d points", sp.Idx, len(grid))
		}
		if hasInc && ((sp.Doomed && inc > 0) || sp.ub() < inc) {
			out = append(out, ShardOutcome{Idx: sp.Idx, Status: ShardSkipped})
			continue
		}
		nd := bnbNode{idx: sp.Idx, p: grid[sp.Idx], ub: sp.ub()}
		pr := t.evalPoint(ctx, space, nd.p, &nd, nil, eng, telemetry.Span{})
		if pr.err != nil {
			return nil, pr.err
		}
		if !pr.feasible || pr.cand == nil {
			out = append(out, ShardOutcome{Idx: sp.Idx, Status: ShardInfeasible})
			continue
		}
		out = append(out, ShardOutcome{Idx: sp.Idx, Status: ShardExplored, Cand: pr.cand})
		if !hasInc || pr.cand.Throughput > inc {
			inc, hasInc = pr.cand.Throughput, true
		}
	}
	t.Metrics.AddSims(eng.Sims)
	return out, nil
}

// searchFleet is the coordinator strategy. Phase 1 and 2 are searchBnB's:
// probe every point in canonical order, sort feasible nodes best-first.
// Phase 3 walks the sorted nodes in waves of Shards×ChunkSize: within a
// wave, sorted position j belongs to shard j mod Shards, every non-empty
// shard batch is dispatched concurrently with the current incumbent, and
// the outcomes are merged back in sorted order with the same decide()
// classification the local strategies use. Dispatch failures degrade to a
// local evaluation of the lost batch, so the result never depends on
// fleet health — only the FleetStats do.
func (t *Tuner) searchFleet(ctx context.Context, space Space, points []gridPoint, eng *sim.Simulator, tracer *telemetry.Tracer, search telemetry.Span, stats *SearchStats) (*Candidate, []Candidate, error) {
	d := t.Sharder
	shards := d.Shards()
	if shards < 1 {
		shards = 1
	}
	chunk := d.ChunkSize()
	if chunk < 1 {
		chunk = DefaultShardChunk
	}
	// Note: no fleet-shape attribute on the search span — the span tree is
	// byte-identical for every workers×shards shape, and the shape lives in
	// FleetStats and the mario_search_fleet_* series instead.

	nodes, err := t.probeAll(ctx, space, points, tracer, search, stats)
	if err != nil {
		return nil, nil, err
	}

	var best *Candidate
	bestIdx := -1
	type traceEnt struct {
		idx int
		c   Candidate
	}
	var ents []traceEnt
	var fl FleetStats
	defer func() { t.publishFleet(fl) }()

	// decide duplicates searchBnB's classification (it closes over this
	// search's incumbent).
	decide := func(nd bnbNode) int {
		if best == nil {
			return exploreNode
		}
		if nd.doomed && best.Throughput > 0 {
			return memPruneNode
		}
		if nd.ub < best.Throughput || (nd.ub == best.Throughput && nd.idx > bestIdx) {
			return boundPruneNode
		}
		return exploreNode
	}

	synth := func(nd bnbNode, result string) telemetry.Span {
		ps := tracer.Detached(telemetry.PhasePoint, pointKey(nd.idx, nd.p))
		ps.SetStr("result", result)
		return ps
	}

	// merge folds one node's outcome into the search state, in sorted
	// order. Decisions replay decide() against the canonical incumbent —
	// never against worker-time state — which is what makes the result
	// independent of the fleet shape. Explored points get a synthesized
	// span built purely from the outcome, so the span tree is fleet-shape
	// independent too (fleet point spans carry no build/sim children; the
	// per-phase telemetry lives on the workers).
	merge := func(nd bnbNode, oc ShardOutcome, ok bool) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		switch decide(nd) {
		case memPruneNode:
			stats.MemPruned++
			t.publishStats(*stats)
			if m := t.Metrics; m != nil {
				m.PointsMemPruned.Inc()
			}
			ps := synth(nd, "memory_pruned")
			ps.SetFloat("mem_lb", nd.memLB)
			ps.End()
			ps.AttachTo(search)
			return nil
		case boundPruneNode:
			stats.BoundPruned++
			t.publishStats(*stats)
			if m := t.Metrics; m != nil {
				m.PointsBoundPruned.Inc()
			}
			ps := synth(nd, "bound_pruned")
			ps.SetFloat("ub", nd.ub)
			ps.End()
			ps.AttachTo(search)
			return nil
		}
		var c *Candidate
		switch {
		case ok && oc.Status == ShardExplored && oc.Cand != nil:
			c = oc.Cand
		case ok && oc.Status == ShardInfeasible:
			// The probe passed but the full evaluation failed (a graph-pass
			// error): the local strategies count that as a structural prune,
			// so the fleet does too.
			t.pruneInfeasible(nd.idx, nd.p, tracer, search, stats)
			return nil
		default:
			// A worker skip the incumbent cannot justify, or a missing
			// outcome: evaluate locally so the result stays exact.
			fl.Forced++
			pr := t.evalPoint(ctx, space, nd.p, &nd, nil, eng, telemetry.Span{})
			if pr.err != nil {
				return pr.err
			}
			if !pr.feasible || pr.cand == nil {
				t.pruneInfeasible(nd.idx, nd.p, tracer, search, stats)
				return nil
			}
			c = pr.cand
		}
		stats.Explored++
		if c.OOM {
			stats.OOMRejected++
		}
		ents = append(ents, traceEnt{idx: nd.idx, c: *c})
		improved := best == nil || c.Throughput > best.Throughput ||
			(c.Throughput == best.Throughput && nd.idx < bestIdx)
		if improved {
			cc := *c
			best = &cc
			bestIdx = nd.idx
			stats.Improved++
		}
		t.publishStats(*stats)
		if m := t.Metrics; m != nil {
			m.PointsExplored.Inc()
			if c.OOM {
				m.PointsOOM.Inc()
			}
			if improved {
				m.PointsImproved.Inc()
			}
		}
		ps := synth(nd, "explored")
		if c.OOM {
			ps.SetStr("result", "oom")
		}
		ps.SetFloat("throughput", c.Throughput)
		ps.SetFloat("ub", nd.ub)
		if improved {
			ps.SetBool("improved", true)
		}
		ps.End()
		ps.AttachTo(search)
		if t.Progress != nil {
			t.Progress(*c, *best)
		}
		return nil
	}

	stride := shards * chunk
	for start := 0; start < len(nodes); start += stride {
		end := start + stride
		if end > len(nodes) {
			end = len(nodes)
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		inc, hasInc := 0.0, false
		if best != nil {
			inc, hasInc = best.Throughput, true
		}
		fl.Waves++
		if hasInc {
			fl.Broadcasts++
		}
		batches := make([][]ShardPoint, shards)
		for j := start; j < end; j++ {
			s := (j - start) % shards
			batches[s] = append(batches[s], shardPointOf(nodes[j]))
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
		byIdx := make(map[int]ShardOutcome, end-start)
		for s := range batches {
			if len(batches[s]) == 0 {
				continue
			}
			ocs := results[s]
			if errs[s] != nil {
				if cerr := ctx.Err(); cerr != nil {
					return nil, nil, cerr
				}
				// The shard is lost (worker down, wire error): evaluate the
				// batch locally with the same incumbent, so the merged result
				// is the one a healthy fleet would have produced.
				fl.Fallbacks++
				var ferr error
				ocs, ferr = t.EvalShard(ctx, space, batches[s], inc, hasInc)
				if ferr != nil {
					return nil, nil, ferr
				}
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
				byIdx[oc.Idx] = oc
			}
		}
		t.publishFleet(fl)
		for j := start; j < end; j++ {
			oc, ok := byIdx[nodes[j].idx]
			if err := merge(nodes[j], oc, ok); err != nil {
				return nil, nil, err
			}
		}
	}

	if m := t.Metrics; m != nil {
		m.FleetWaves.Add(int64(fl.Waves))
		m.FleetBroadcasts.Add(int64(fl.Broadcasts))
		m.FleetDispatched.Add(int64(fl.Dispatched))
		m.FleetFallbacks.Add(int64(fl.Fallbacks))
		m.FleetRemoteExplored.Add(int64(fl.RemoteExplored))
		m.FleetRemoteSkipped.Add(int64(fl.RemoteSkipped))
		m.FleetRemoteInfeasible.Add(int64(fl.RemoteInfeasible))
		m.FleetForced.Add(int64(fl.Forced))
	}

	sort.Slice(ents, func(a, b int) bool { return ents[a].idx < ents[b].idx })
	var trace []Candidate
	if len(ents) > 0 {
		trace = make([]Candidate, len(ents))
		for i := range ents {
			trace[i] = ents[i].c
		}
	}
	return best, trace, nil
}
