package scheme

import (
	"mario/internal/pipeline"
)

// unit is one compute instruction to be placed by the greedy list scheduler.
type unit struct {
	kind  pipeline.Kind // Forward, Backward, BackwardInput or BackwardWeight
	micro int
	part  int
	stage int
	dev   int

	// dependency bookkeeping
	waiting int     // unresolved predecessors
	ready   float64 // max finish time of resolved predecessors
}

// dep is one dependency edge between two units, by index: to may not start
// before from has finished.
type dep struct{ from, to int32 }

// unitTimes weights the greedy scheduler's ordering decisions. Zero fields
// default to the canonical unit times (forward 1, backward 2) with the
// backward split evenly between its input-gradient and weight-gradient
// halves.
type unitTimes struct {
	fw, bw, bi, wg float64
}

func (t unitTimes) withDefaults() unitTimes {
	if t.fw <= 0 {
		t.fw = 1
	}
	if t.bw <= 0 {
		t.bw = 2
	}
	if t.bi <= 0 {
		t.bi = t.bw / 2
	}
	if t.wg <= 0 {
		t.wg = t.bw - t.bw/2
	}
	return t
}

// dur returns the scheduling weight of a unit kind.
func (t unitTimes) dur(k pipeline.Kind) float64 {
	switch k {
	case pipeline.Backward:
		return t.bw
	case pipeline.BackwardInput:
		return t.bi
	case pipeline.BackwardWeight:
		return t.wg
	}
	return t.fw
}

// depGraph is the composable dependency-graph program behind schedule
// generation: a scheme generator picks a placement, adds the compute units of
// each micro-batch (fused or split backward), layers dependency rules on top
// (vertical chains, 1F1B injection windows, arbitrary extra edges via
// addDep), and finally runs the deterministic earliest-start greedy list
// scheduler over the whole graph. Chimera, ZB-H1, DualPipe-D and BuildCustom
// all compose their schedules this way; the closed-form emitters (GPipe,
// 1F1B, Interleave) bypass it because their exact shapes are pinned by tests.
type depGraph struct {
	r     *pipeline.Resolved
	times unitTimes
	units []unit
	// index maps a unit's key, by its slot in the placement's key box, to its
	// position in units.
	index []int32
	deps  []dep // in addDep order, which schedule() keeps per predecessor
}

// newDepGraph starts an empty dependency graph over the given placement,
// sized for what its caller is about to add: every micro-batch contributes,
// per stage, a forward and a backward unit (three units when the backward is
// split) and at most four edges (five when split) — forward→backward, the
// two cross-stage chains, one injection window, and BI→W.
func newDepGraph(r *pipeline.Resolved, times unitTimes, micros int, split bool) *depGraph {
	perStage := micros * r.Placement().NumStages()
	units, deps := 2*perStage, 4*perStage
	if split {
		units, deps = 3*perStage, 5*perStage
	}
	return &depGraph{r: r, times: times.withDefaults(),
		units: make([]unit, 0, units), index: make([]int32, r.Slots()), deps: make([]dep, 0, deps)}
}

// addUnit registers one compute unit at its placement-assigned device.
func (g *depGraph) addUnit(k pipeline.Kind, micro, part, stage int) {
	u := unit{kind: k, micro: micro, part: part, stage: stage, dev: g.r.Device(part, stage)}
	g.index[g.r.Slot(pipeline.Key{Kind: k, Micro: micro, Part: part, Stage: stage})] = int32(len(g.units))
	g.units = append(g.units, u)
}

// addDep records that the unit keyed by `to` may not start before the unit
// keyed by `from` has finished. Both units must already be registered.
func (g *depGraph) addDep(from, to pipeline.Key) {
	f, t := g.index[g.r.Slot(from)], g.index[g.r.Slot(to)]
	g.deps = append(g.deps, dep{f, t})
	g.units[t].waiting++
}

// successors lays the recorded edges out as one compressed-sparse-row array:
// the successors of unit i are succ[off[i]:off[i+1]], in the order addDep
// recorded them.
func (g *depGraph) successors() (off, succ []int32) {
	// Counted two slots up, the prefix sums leave unit i's start in off[i+1];
	// filling advances it to unit i's end, which is unit i+1's start.
	off = make([]int32, len(g.units)+2)
	for _, d := range g.deps {
		off[d.from+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	succ = make([]int32, len(g.deps))
	for _, d := range g.deps {
		succ[off[d.from+1]] = d.to
		off[d.from+1]++
	}
	return off[:len(g.units)+1], succ
}

// bwAnchor is the kind that anchors a micro-batch's backward at a stage: the
// fused Backward, or its input-gradient half when the backward is split.
func bwAnchor(split bool) pipeline.Kind {
	if split {
		return pipeline.BackwardInput
	}
	return pipeline.Backward
}

// addMicroUnits adds one micro-batch's per-stage compute units together with
// the virtual-pipeline dependencies that tie them together: the forward chain
// down the stages (FW(m,s) after FW(m,s-1)), the backward chain up the stages
// (BW(m,s) after BW(m,s+1)), and FW(m,s) before BW(m,s). With split=true the
// fused BW is replaced by the BackwardInput/BackwardWeight pair: the
// input-gradient half inherits all of BW's edges (it alone sits on the
// cross-stage critical path), and the weight-gradient half depends only on
// its BI, which frees the scheduler to sink it into pipeline bubbles.
func (g *depGraph) addMicroUnits(ma microAssign, split bool) {
	S := g.r.Placement().NumStages()
	anchor := bwAnchor(split)
	for s := 0; s < S; s++ {
		part := g.r.PartAt(ma.part, s)
		g.addUnit(pipeline.Forward, ma.micro, part, s)
		g.addUnit(anchor, ma.micro, part, s)
		if split {
			g.addUnit(pipeline.BackwardWeight, ma.micro, part, s)
		}
	}
	for s := 0; s < S; s++ {
		part := g.r.PartAt(ma.part, s)
		fw := pipeline.Key{Kind: pipeline.Forward, Micro: ma.micro, Part: part, Stage: s}
		bw := pipeline.Key{Kind: anchor, Micro: ma.micro, Part: part, Stage: s}
		g.addDep(fw, bw)
		if split {
			g.addDep(bw, pipeline.Key{Kind: pipeline.BackwardWeight, Micro: ma.micro, Part: part, Stage: s})
		}
		if s > 0 {
			prev := pipeline.Key{Kind: pipeline.Forward, Micro: ma.micro, Part: g.r.PartAt(ma.part, s-1), Stage: s - 1}
			g.addDep(prev, fw)
			prevBW := pipeline.Key{Kind: anchor, Micro: ma.micro, Part: g.r.PartAt(ma.part, s-1), Stage: s - 1}
			g.addDep(bw, prevBW)
		}
	}
}

// addInjectionWindows layers the 1F1B memory discipline over the graph:
// within each partition (pipeline direction), the forward of the k-th
// micro-batch at stage s may not start before the backward anchor of the
// (k-(S-s))-th micro-batch of the same partition at the same stage has
// finished. This bounds the in-flight micro-batches per direction at stage s
// to S-s — exactly the memory discipline of 1F1B — so merged bidirectional
// schedules stay within Table 1's ≈D·Mθ peak instead of flooding early
// bubbles with forwards, and split-backward schedules hold no more live
// activations than 1F1B (the deferred W units retain only weight-gradient
// stashes).
func (g *depGraph) addInjectionWindows(micros []microAssign, split bool) {
	S := g.r.Placement().NumStages()
	anchor := bwAnchor(split)
	byPart := map[int][]microAssign{}
	for _, ma := range micros {
		byPart[ma.part] = append(byPart[ma.part], ma)
	}
	for _, seq := range byPart {
		for k, ma := range seq {
			for s := 0; s < S; s++ {
				part := g.r.PartAt(ma.part, s)
				w := S - s
				if k-w < 0 {
					continue
				}
				prev := seq[k-w]
				g.addDep(
					pipeline.Key{Kind: anchor, Micro: prev.micro, Part: g.r.PartAt(prev.part, s), Stage: s},
					pipeline.Key{Kind: pipeline.Forward, Micro: ma.micro, Part: part, Stage: s},
				)
			}
		}
	}
}

// schedule runs deterministic earliest-start list scheduling of the graph's
// units onto devices and returns the per-device instruction lists. Ordering
// decisions use the graph's unit times plus a small communication epsilon so
// that cross-device transfers break ties deterministically; the result
// depends only on the dependency set and unit registration order, never on
// map iteration order (ready times are maxima and the ready-queue order is a
// strict total order over units).
func (g *depGraph) schedule() [][]pipeline.Instr {
	const commEps = 1e-3
	units := g.units
	D := g.r.Placement().NumDevices()
	devFree := make([]float64, D)
	lists := make([][]pipeline.Instr, D)
	off, succ := g.successors()
	rq := &readyQueue{units: units, idx: make([]int32, 0, len(units))}
	for i := range units {
		if units[i].waiting == 0 {
			rq.idx = append(rq.idx, int32(i))
		}
	}
	for rq.Len() > 0 {
		i := rq.popBest(devFree)
		u := &units[i]
		start := u.ready
		if devFree[u.dev] > start {
			start = devFree[u.dev]
		}
		finish := start + g.times.dur(u.kind)
		devFree[u.dev] = finish
		lists[u.dev] = append(lists[u.dev], pipeline.Instr{Kind: u.kind, Micro: u.micro, Part: u.part, Stage: u.stage})
		for _, si := range succ[off[i]:off[i+1]] {
			s := &units[si]
			arrive := finish
			if s.dev != u.dev {
				arrive += commEps
			}
			if arrive > s.ready {
				s.ready = arrive
			}
			s.waiting--
			if s.waiting == 0 {
				rq.idx = append(rq.idx, si)
			}
		}
	}
	return lists
}

// greedySchedule composes the dependency graph every list-scheduled shape
// shares — per-micro-batch units, virtual-pipeline chains, 1F1B injection
// windows — and runs the scheduler over it. Fused (split=false) it is Chimera's
// two mirrored 1F1B pipelines (the paper picks its Chimera schedule from the
// released chimera_pipeline_rank.py; the greedy merge reproduces its
// bidirectional bubble-overlap structure) and BuildCustom's user-defined
// pipelines (§5.2, "Visualization"). Split, every backward is emitted as a
// BackwardInput/BackwardWeight pair, the injection windows anchor on the
// input-gradient half, and the scheduler fills device idle gaps with deferred
// weight-gradient units (Zero Bubble's central scheduling move).
func greedySchedule(r *pipeline.Resolved, micros []microAssign, times unitTimes, split bool) [][]pipeline.Instr {
	g := newDepGraph(r, times, len(micros), split)
	for _, ma := range micros {
		g.addMicroUnits(ma, split)
	}
	g.addInjectionWindows(micros, split)
	return g.schedule()
}

// microAssign assigns a micro-batch to a partition (pipeline direction or
// chunk sequence); Resolved.PartAt says which partition it rides at a stage.
type microAssign struct {
	micro int
	part  int // fixed partition for bidirectional schemes
}

// readyQueue holds the indices of schedulable units. popBest selects the
// unit with the minimal effective start; among equals it prefers backward
// anchors (BW/BI) over forwards (bounding activation memory), forwards over
// deferred weight-gradient units (which exist to fill bubbles, not to delay
// the critical path), and then lower micro ids for determinism.
type readyQueue struct {
	units []unit
	idx   []int32
}

// Len returns the number of schedulable units.
func (q *readyQueue) Len() int { return len(q.idx) }

// popBest removes and returns the best schedulable unit: minimal effective
// start time max(ready, devFree), then backward-anchor before Forward before
// BackwardWeight, then lowest micro, part and stage ids.
func (q *readyQueue) popBest(devFree []float64) int32 {
	best := 0
	for pos := 1; pos < len(q.idx); pos++ {
		if better(&q.units[q.idx[pos]], &q.units[q.idx[best]], devFree) {
			best = pos
		}
	}
	i := q.idx[best]
	q.idx[best] = q.idx[len(q.idx)-1]
	q.idx = q.idx[:len(q.idx)-1]
	return i
}

// kindRank orders unit kinds at equal effective start: backward anchors
// first (they unblock downstream devices), then forwards, then deferred
// weight-gradient work last.
func kindRank(k pipeline.Kind) int {
	switch k {
	case pipeline.Backward, pipeline.BackwardInput:
		return 0
	case pipeline.BackwardWeight:
		return 2
	}
	return 1
}

// better is the ready queue's strict total order: whether ua is scheduled
// before ub given when each one's device falls free.
func better(ua, ub *unit, devFree []float64) bool {
	ea, eb := ua.ready, ub.ready
	if devFree[ua.dev] > ea {
		ea = devFree[ua.dev]
	}
	if devFree[ub.dev] > eb {
		eb = devFree[ub.dev]
	}
	if ea != eb {
		return ea < eb
	}
	if ra, rb := kindRank(ua.kind), kindRank(ub.kind); ra != rb {
		return ra < rb
	}
	if ua.micro != ub.micro {
		return ua.micro < ub.micro
	}
	if ua.part != ub.part {
		return ua.part < ub.part
	}
	return ua.stage < ub.stage
}

// layoutChimera is the bidirectional "X"-shape layout: micro-batches are
// split between the up pipeline (part 0, stage s on device s) and the down
// pipeline (part 1, stage s on device D-1-s) in alternating blocks of D/2 per
// wave; the greedy scheduler then merges the two streams per device.
func layoutChimera(cfg Config) (pipeline.Placement, []int) {
	half := cfg.Devices / 2
	parts := make([]int, cfg.Micros)
	for m := range parts {
		// Waves of D micro-batches: the first D/2 flow up, the next D/2 down.
		parts[m] = (m / half) % 2
	}
	return pipeline.NewBidirPlacement(cfg.Devices), parts
}
