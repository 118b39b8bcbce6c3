package tuner

import (
	"context"
	"math"
	"sort"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// This file is the probe pass of the search driver (Tuner.search): every
// grid point is checked structurally and bounded cheaply — the scheme's
// order-free shape, an admissible throughput upper bound and an admissible
// memory lower bound that counts each cell's in-flight micro-batches, no
// schedule built — and the feasible points are handed to the merge loop as
// nodes, in the order they are to be expanded.
//
// Best-first (the default) expands the highest bound first and provably-OOM
// points last: the best candidates surface early, so the bound prune fires on
// most of the remaining grid, and points whose memory lower bound already
// exceeds the device budget are skipped entirely once any positive-throughput
// incumbent exists (their simulated throughput is provably zero under
// Equation 1's OOM penalty). Space.NoBnB keeps the canonical grid order
// instead, with the same bounds and the same prune rule; Space.NoPrune makes
// every bound vacuous, so nothing is pruned.
//
// Every order is exact: the search returns the best candidate the exhaustive
// walk returns, with the same canonical tie-break (highest throughput,
// earliest grid index among ties). The equivalence is pinned by differential
// tests against an independent exhaustive argmax. Only the exploration order
// — and with it the subset of points that get simulated, the trace contents
// and the ordering-variant stats counters — differs; the ordering-invariant
// digest (SearchStats.invariant) is preserved.

// bnbNode is one probed, structurally feasible grid point awaiting
// expansion.
type bnbNode struct {
	// idx is the point's canonical grid index (its enumerate position).
	idx int
	p   gridPoint
	// micros, est and asg are the point's resolution (pointShape), which
	// evalPoint scores it with. The estimator and the assignment are read-only
	// from here on, so the point's checkpoint sibling and any pool worker may
	// share them.
	micros int
	est    *cost.Estimator
	asg    *place.Assignment
	// ub is the admissible throughput upper bound from throughputBound; the
	// true simulated throughput of the point can never exceed it.
	ub float64
	// memLB is the admissible per-device memory lower bound from
	// memLowerBound; the true simulated peak can never be below it.
	memLB float64
	// doomed marks points whose memLB already exceeds Space.DeviceMem:
	// their simulation is guaranteed OOM, hence zero throughput.
	doomed bool
}

// effUB is the expansion priority: doomed points sort last (their true
// throughput is zero regardless of ub), everything else by bound.
func (n bnbNode) effUB() float64 {
	if n.doomed {
		return 0
	}
	return n.ub
}

// dominatedBy reports whether an incumbent throughput already rules the node
// out: its bound is strictly below it, or the node is provably OOM while the
// incumbent is positive. This is the pool workers' one skip rule. It is
// strictly more conservative than the merge loop's decide — no tie-break, so
// a bound tie is evaluated — which
// is why a skip against any incumbent the merge has reached or will reach
// before the node is always confirmed.
func (n bnbNode) dominatedBy(incumbent float64) bool {
	return n.ub < incumbent || (n.doomed && incumbent > 0)
}

// probePoint turns a grid point and its resolution r (pointShape: the
// structural feasibility checks, the scheme's order-free shape, the estimator
// fit and the assignment) into a node carrying r and the bounds computed from
// it. No schedule is built: both bounds need only the shape — the per-device
// instruction multiset, the placement and the cells' in-flight depths. Under
// Space.NoPrune the node keeps the vacuous bounds (ub = +Inf, not doomed),
// which no incumbent prunes. It reports ok=false for structurally infeasible
// points. It records no telemetry; the caller synthesizes the canonical spans.
func (t *Tuner) probePoint(space Space, p gridPoint, r resolution) (nd bnbNode, ok bool) {
	if !r.ok {
		return bnbNode{}, false
	}
	nd = bnbNode{p: p, micros: r.micros, est: r.est, asg: r.asg, ub: math.Inf(1)}
	if !space.NoPrune {
		nd.ub = throughputBound(r.sh, r.est, p, space.SplitBackward)
		nd.memLB = memLowerBound(r.sh, r.est, p.ckpt)
		nd.doomed = space.DeviceMem > 0 && nd.memLB > space.DeviceMem
	}
	return nd, true
}

// boundSlack is the relative margin throughputBound shades its makespan lower
// bound by. The bound is mathematically exact on un-bubbled schedules (a
// single micro-batch is nothing but the head + busy + tail chain), but it sums
// the same durations in a different order than the simulator's clock, so the
// two can disagree in the last bits. Float64 addition is off by at most 2⁻⁵³
// relative per operation; a device list of a million instructions accumulates
// less than 1.2e-10, so 1e-9 keeps the bound admissible at the float level —
// which the canonical tie-break needs — at no measurable loss of pruning.
// memLowerBound is shaded by the same margin: it adds up a device's memory in
// another order than the memory simulation's list walk.
const boundSlack = 1e-9

// throughputBound is the one admissible throughput upper bound the search
// prunes with: samples per iteration over a lower bound on the
// simulated makespan, times the DP efficiency. It needs the point's shape
// (per-device instruction multiset + placement), never the schedule's order.
//
// The makespan bound is the fill/drain-aware serial bound, per device d:
//
//	head(d) + busy(d) + tail(d)
//
// busy is the device's serial occupancy: every instruction holds the device at
// least its launch overhead, compute instructions their full simulated
// duration (per-rank slowdown included, split-base schemes at their B/W
// halves' prices).
//
// head is the pipeline fill: a forward of stage s cannot start before one
// micro-batch ran the forwards of stages 0..s-1 along its partition, each
// device-crossing boundary adding launch overhead + transfer (the simulator's
// eager sends deliver no earlier than send start + overhead + transfer).
// Nothing on d completes before the smallest such time over d's resident
// stages: its first instruction is a forward (which starts no earlier) or a
// receive (which completes no earlier — so one receive's launch overhead, and
// only one, may overlap the head and is taken back out of busy).
//
// tail is the pipeline drain. Let Y be the last backward of d's list. Every
// forward, receive and other backward of d precedes Y, and so does every send
// but Y's own gradient send (activation sends by deadlock-freedom, gradient
// sends because no pass separates one from its backward). Y's gradient must
// still descend to stage 0 — one backward per stage plus overhead + transfer
// per crossing — and stage 0's device then runs its cool-down (all-reduce and
// optimizer step, which close every list). d does not know which resident
// stage Y belongs to, so the device term takes the shortest descent; each
// resident (part, stage) cell additionally contributes the same sum over its
// own instructions only, whose fill and descent are known exactly. With one
// micro-batch the last stage's cell term is the whole dependency chain; with
// head and tail dropped the device term is the busiest device's occupancy.
//
// When the backward's weight-gradient half can leave the critical path —
// split-base schemes always, otherwise when splitBackward lets the
// split-backward pass rewrite the checkpointed candidate — only the
// input-gradient half is charged on the descent and before Y; the weight
// halves then count in the variant of the device term that ends with d's own
// cool-down.
//
// The bound is admissible under every pass the tuner applies afterwards:
// checkpointing adds work (recomputes; a reverted pair costs what the plain
// pair did), prepose only reorders a device's list, split backward turns one
// backward into two halves whose durations sum to at least the original, and
// no pass deletes a communication, all-reduce or optimizer instruction.
func throughputBound(sh scheme.Shape, est *cost.Estimator, p gridPoint, splitBackward bool) float64 {
	res := sh.Resolved
	S, D := sh.Placement.NumStages(), sh.Placement.NumDevices()
	lo := est.LaunchOverhead
	split := sh.Scheme.SplitsBackward()
	// r is the fraction of a backward that must precede the gradient send.
	r := 1.0
	if split || (splitBackward && p.ckpt) {
		r = cost.BwSplitRatio
	}
	actHop := lo + est.CommTime(est.ActP2PBytes)
	gradHop := lo + est.CommTime(est.GradP2PBytes)

	// cool[d] is device d's cool-down at the simulator's exact prices.
	cool := make([]float64, D)
	for d := range cool {
		slow := est.SlowOf(d)
		cool[d] = (lo + est.AllReduceTime(p.dp, res.Stages(d))*slow) + (lo + sim.ComputeBase(est, pipeline.OptimizerStep, 0)*slow)
	}
	// fill[part*S+st] is the earliest start of a forward at (part, st);
	// drain[part*S+st] the least time from a backward's completion there to
	// the end of the iteration.
	fill := make([]float64, len(sh.PartMicros)*S)
	drain := make([]float64, len(fill))
	for part, n := range sh.PartMicros {
		if n == 0 {
			continue
		}
		f, dr := fill[part*S:(part+1)*S], drain[part*S:(part+1)*S]
		dev := res.Device(part, 0)
		dr[0] = cool[dev]
		for st := 1; st < S; st++ {
			slow := est.SlowOf(dev)
			f[st] = f[st-1] + (lo + sim.ComputeBase(est, pipeline.Forward, st-1)*slow)
			dr[st] = dr[st-1] + (lo + est.BwTime[st-1]*r*slow)
			if next := res.Device(part, st); next != dev {
				f[st] += actHop
				dr[st] += gradHop
				dev = next
			}
		}
	}

	var lb float64
	var groups []scheme.Group
	for d := 0; d < D; d++ {
		groups = sh.AppendGroups(groups[:0], d)
		slow := est.SlowOf(d)
		all := cool[d] // everything d runs
		pre := 0.0     // what d runs no later than its last backward
		head, tail := math.Inf(1), math.Inf(1)
		sendsGrad := false
		for _, g := range groups {
			n := float64(g.Micros)
			fw := lo + sim.ComputeBase(est, pipeline.Forward, g.Stage)*slow
			bw := lo + sim.ComputeBase(est, pipeline.Backward, g.Stage)*slow
			if split {
				bw = (lo + sim.ComputeBase(est, pipeline.BackwardInput, g.Stage)*slow) +
					(lo + sim.ComputeBase(est, pipeline.BackwardWeight, g.Stage)*slow)
			}
			anchor := lo + est.BwTime[g.Stage]*r*slow
			var comm float64
			if g.PrevCross {
				comm += 2 * lo // RecvAct + SendGrad
			}
			if g.NextCross {
				comm += 2 * lo // SendAct + RecvGrad
			}
			all += n * (fw + bw + comm)
			cellPre := n * (fw + anchor + comm)
			pre += cellPre
			i := g.Part*S + g.Stage
			cell := fill[i] + cellPre + drain[i]
			if g.PrevCross {
				// The cell's first receive overlaps its fill, and its last
				// backward's own gradient send follows it.
				cell -= 2 * lo
				sendsGrad = true
			}
			lb = math.Max(lb, cell)
			head = math.Min(head, fill[i])
			tail = math.Min(tail, drain[i])
		}
		if len(groups) == 0 {
			lb = math.Max(lb, all)
			continue
		}
		if sendsGrad {
			pre -= lo
		}
		head = math.Max(head-lo, 0)
		lb = math.Max(lb, head+math.Max(all, pre+tail))
	}
	lb -= lb * boundSlack
	if lb <= 0 {
		return math.Inf(1)
	}
	samples := float64(sh.Micros * p.mbs * p.dp)
	return samples / lb * dpEff(dpEfficiency, p.dp)
}

// memLowerBound returns an admissible lower bound on the worst device's peak
// memory, from the point's shape alone: the device's static memory
// (framework + the weights of its stages) plus, over its resident cells, the
// largest activation footprint live when a cell's first backward anchor
// starts. The cell's in-flight depth k (scheme.Group.InFlight; 1 where the
// layout has no closed form) counts its forwards before that anchor, and
// none of their activations has been released yet:
//
//   - on a base point each holds ActFull[s], so k·ActFull[s];
//   - on a checkpointed point the anchor's own micro-batch holds at least
//     ActFull[s] (a recomputed or reverted forward) and each of the other k-1
//     at least min(ActStash[s], ActFull[s]).
//
// Everything else live on the device is a non-negative sum (every release
// follows its allocation in list order), and no pass lowers the live bytes
// at a first anchor (DESIGN §5), so the simulated peak is never below the
// bound. It takes the maximum over a device's cells, not their sum: the
// cells' first anchors are distinct instants, and what one cell holds at its
// anchor may be gone by another's. The bound is shaded by boundSlack, since
// the memory simulation sums the same terms in list order.
func memLowerBound(sh scheme.Shape, est *cost.Estimator, ckpt bool) float64 {
	res := sh.Resolved
	var worst float64
	var groups []scheme.Group
	for d := 0; d < sh.Placement.NumDevices(); d++ {
		static := est.FrameworkMem
		for _, st := range res.Stages(d) {
			static += est.WeightBytes[st]
		}
		var act float64
		groups = sh.AppendGroups(groups[:0], d)
		for _, g := range groups {
			full := est.ActFull[g.Stage]
			held := full
			if ckpt {
				held = min(est.ActStash[g.Stage], full)
			}
			act = max(act, full+float64(max(g.InFlight, 1)-1)*held)
		}
		worst = max(worst, static+act)
	}
	return worst - worst*boundSlack
}

// pruneInfeasible records one structurally infeasible grid point: the stats
// counter plus the canonical prune span. The probe pass and the merge loop
// (for a point whose full evaluation fails after its probe passed) both go
// through it.
func (t *Tuner) pruneInfeasible(idx int, p gridPoint, tracer *telemetry.Tracer, search telemetry.Span, stats *SearchStats) {
	stats.Pruned++
	ps := pointSpan(tracer, idx, p)
	ps.SetStr("result", "infeasible")
	ps.End()
	ps.AttachTo(search)
}

// probeAll is the probe pass: every grid point is probed sequentially in
// canonical order (attaching the structural-prune spans as it goes), and the
// feasible nodes come back in expansion order — best-first by default
// (descending bound, canonical index among ties, provably-OOM points last),
// canonical grid order under Space.NoBnB or Space.NoPrune. It runs on the
// search goroutine whatever the outcome source, which is what keeps the probe
// telemetry and the expansion order identical across sources. The whole pass
// is one PhaseBound span under the search — what bounding and ordering the
// grid cost, as opposed to evaluating it.
//
// A point's resolution does not depend on its checkpoint flag, so the pass
// resolves each checkpoint-free coordinate once and hands the result to both
// of its nodes.
func (t *Tuner) probeAll(ctx context.Context, space Space, points []gridPoint, tracer *telemetry.Tracer, search telemetry.Span, stats *SearchStats) ([]bnbNode, error) {
	bound := search.Child(telemetry.PhaseBound, "")
	defer bound.End()
	nodes := make([]bnbNode, 0, len(points))
	resolved := make(map[gridPoint]resolution, len(points))
	for i, p := range points {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		key := p
		key.ckpt = false
		r, seen := resolved[key]
		if !seen {
			r = t.pointShape(space, p)
			resolved[key] = r
		}
		nd, ok := t.probePoint(space, p, r)
		if !ok {
			t.pruneInfeasible(i, p, tracer, search, stats)
			continue
		}
		nd.idx = i
		nodes = append(nodes, nd)
	}
	if !space.NoBnB && !space.NoPrune {
		sort.Slice(nodes, func(a, b int) bool {
			ua, ub := nodes[a].effUB(), nodes[b].effUB()
			if ua != ub {
				return ua > ub
			}
			return nodes[a].idx < nodes[b].idx
		})
	}
	bound.SetInt("nodes", int64(len(nodes)))
	return nodes, nil
}
