package scheme

import (
	"mario/internal/pipeline"
)

// unit is one compute instruction to be placed by the greedy list scheduler.
type unit struct {
	kind  pipeline.Kind // Forward, Backward, BackwardInput or BackwardWeight
	rank  uint8         // kindRank(kind), the first key of the tail order
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

// unitTime is the greedy scheduler's ordering weight of a unit kind: the
// canonical unit times, forward 1 and backward 2, with a split backward
// halved evenly between its input-gradient and weight-gradient units.
func unitTime(k pipeline.Kind) float64 {
	if k == pipeline.Backward {
		return 2
	}
	return 1
}

// depGraph is the composable dependency-graph program behind schedule
// generation: a scheme generator picks a placement, adds the compute units of
// each micro-batch (fused or split backward), layers dependency rules on top
// (vertical chains, 1F1B injection windows, arbitrary extra edges via
// addDep), and finally runs the deterministic earliest-start greedy list
// scheduler over the whole graph. Chimera, ZB-H1 and DualPipe-D all compose
// their schedules this way; the closed-form emitters (GPipe, 1F1B,
// Interleave) bypass it because their exact shapes are pinned by tests.
type depGraph struct {
	r     *pipeline.Resolved
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
func newDepGraph(r *pipeline.Resolved, micros int, split bool) *depGraph {
	perStage := micros * r.Placement().NumStages()
	units, deps := 2*perStage, 4*perStage
	if split {
		units, deps = 3*perStage, 5*perStage
	}
	return &depGraph{r: r, units: make([]unit, 0, units), index: make([]int32, r.Slots()), deps: make([]dep, 0, deps)}
}

// addUnit registers one compute unit at its placement-assigned device.
func (g *depGraph) addUnit(k pipeline.Kind, micro, part, stage int) {
	u := unit{kind: k, rank: kindRank(k), micro: micro, part: part, stage: stage, dev: g.r.Device(part, stage)}
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
	S, P := g.r.Placement().NumStages(), g.r.Placement().NumParts()
	anchor := bwAnchor(split)
	// A stable counting sort by partition (every part lies in [0, P): the
	// registry layouts emit nothing else): partition p's micro-batches, in
	// injection order, are byPart[at[p]:at[p+1]]. Counted two slots up, as
	// in successors.
	at := make([]int, P+2)
	for _, ma := range micros {
		at[ma.part+2]++
	}
	for p := 2; p < len(at); p++ {
		at[p] += at[p-1]
	}
	byPart := make([]microAssign, len(micros))
	for _, ma := range micros {
		byPart[at[ma.part+1]] = ma
		at[ma.part+1]++
	}
	for p := 0; p < P; p++ {
		seq := byPart[at[p]:at[p+1]]
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
// units onto devices and returns the per-device instruction lists: each step
// places the ready unit with the least effective start max(ready, the time its
// device falls free), earlier tail first among equals. Ordering decisions use
// the unit times plus a small communication epsilon so that cross-device
// transfers break ties deterministically. The result depends only on the
// units and the dependency set — never on registration, edge or map iteration
// order: ready times are maxima, and the ready queue's order is a strict total
// order because no two units of a graph share a tail (DESIGN §12).
func (g *depGraph) schedule() [][]pipeline.Instr {
	const commEps = 1e-3
	units := g.units
	// Every unit passes through its device's heaps and lands in its device's
	// list, so the per-device unit counts size both.
	perDev := make([]int, g.r.Placement().NumDevices())
	for i := range units {
		perDev[units[i].dev]++
	}
	q := newReadyQueue(units, perDev)
	lists := make([][]pipeline.Instr, len(perDev))
	backing := make([]pipeline.Instr, len(units))
	for d, n := range perDev {
		lists[d], backing = backing[:0:n], backing[n:]
	}
	off, succ := g.successors()
	for i := range units {
		if units[i].waiting == 0 {
			q.push(int32(i))
		}
	}
	for i := q.pop(); i >= 0; i = q.pop() {
		u := &units[i]
		finish := max(u.ready, q.devs[u.dev].free) + unitTime(u.kind)
		q.occupy(u.dev, finish)
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
				q.push(si)
			}
		}
	}
	return lists
}

// greedyGraph composes the dependency graph every list-scheduled shape
// shares — per-micro-batch units, virtual-pipeline chains, 1F1B injection
// windows — for the scheduler to run over. Fused (split=false) it is
// Chimera's two mirrored 1F1B pipelines (the paper picks its Chimera schedule
// from the released chimera_pipeline_rank.py; the greedy merge reproduces its
// bidirectional bubble-overlap structure). Split, every backward is emitted as
// a BackwardInput/BackwardWeight pair, the injection windows anchor on the
// input-gradient half, and the scheduler fills device idle gaps with deferred
// weight-gradient units (Zero Bubble's central scheduling move).
func greedyGraph(r *pipeline.Resolved, micros []microAssign, split bool) *depGraph {
	g := newDepGraph(r, len(micros), split)
	for _, ma := range micros {
		g.addMicroUnits(ma, split)
	}
	g.addInjectionWindows(micros, split)
	return g
}

// microAssign assigns a micro-batch to a partition (pipeline direction or
// chunk sequence); Resolved.PartAt says which partition it rides at a stage.
type microAssign struct {
	micro int
	part  int // fixed partition for bidirectional schemes
}

// kindRank orders unit kinds at equal effective start: backward anchors
// first (they unblock downstream devices), then forwards, then deferred
// weight-gradient work last.
func kindRank(k pipeline.Kind) uint8 {
	switch k {
	case pipeline.Backward, pipeline.BackwardInput:
		return 0
	case pipeline.BackwardWeight:
		return 2
	}
	return 1
}

// before is the static tail of the ready queue's order: kindRank, then micro,
// part and stage ids. It names exactly one unit of a graph (DESIGN §12), so
// it never ties two distinct units.
func (u *unit) before(v *unit) bool {
	if u.rank != v.rank {
		return u.rank < v.rank
	}
	if u.micro != v.micro {
		return u.micro < v.micro
	}
	if u.part != v.part {
		return u.part < v.part
	}
	return u.stage < v.stage
}

// readyQueue holds the schedulable units and yields them in the list
// scheduler's order: least effective start max(ready, the time the unit's
// device falls free), then the tail (before) — backward anchors over forwards
// (bounding activation memory), forwards over deferred weight-gradient units
// (which exist to fill bubbles, not to delay the critical path), then lower
// micro, part and stage ids.
//
// The queue splits by device, exactly: a unit's ready time is final when it
// enters, and a pop advances only its own device's free time, which only
// grows. So a device's units that are ready by the time it falls free all tie
// on effective start and are ordered by the tail alone (the now heap), the
// rest by (ready, tail) (the later heap), and a unit moves from later to now
// once, when its device's free time passes its ready time. A device's next
// unit is its now top if it has one — every later unit starts strictly after
// — and its later top otherwise; a tournament tree over the devices picks the
// least of those, by the same order. Push, pop and occupy touch one device's
// heaps and one leaf-to-root path of the tree. greedy_test.go holds the
// oracle it must match: a linear scan over all schedulable units.
type readyQueue struct {
	units []unit
	devs  []devQueue
	// tree is the tournament: leaf leaves+d holds device d's next unit, every
	// inner node the earlier of its two children's, so tree[1] holds the
	// queue's next unit.
	tree   []entry
	leaves int
}

// devQueue is one device's share of the ready queue.
type devQueue struct {
	free  float64 // when the device falls free: the finish of its last unit
	now   []int32 // units with ready ≤ free: a min-heap on the tail
	later []int32 // units with ready > free: a min-heap on (ready, tail)
}

// entry is a tournament node: a unit (-1: none) and its effective start.
type entry struct {
	start float64
	unit  int32
}

// newReadyQueue returns an empty queue over the units, with perDev[d] of them
// on device d. A device's two heaps never hold more than its units between
// them, so both are carved, at that capacity, from one allocation.
func newReadyQueue(units []unit, perDev []int) *readyQueue {
	leaves := 1
	for leaves < len(perDev) {
		leaves *= 2
	}
	q := &readyQueue{units: units, devs: make([]devQueue, len(perDev)), tree: make([]entry, 2*leaves), leaves: leaves}
	for i := range q.tree {
		q.tree[i].unit = -1
	}
	arena := make([]int32, 2*len(units))
	for d, n := range perDev {
		q.devs[d] = devQueue{now: arena[:0:n], later: arena[n : n : 2*n]}
		arena = arena[2*n:]
	}
	return q
}

// push adds a unit whose predecessors have all finished: its ready time is
// final.
func (q *readyQueue) push(i int32) {
	d := q.units[i].dev
	dq := &q.devs[d]
	if q.units[i].ready <= dq.free {
		dq.now = q.heapPush(dq.now, i, false)
	} else {
		dq.later = q.heapPush(dq.later, i, true)
	}
	q.fix(d)
}

// pop removes and returns the next unit, or -1 when none is schedulable. The
// caller must then occupy the unit's device until the unit finishes.
func (q *readyQueue) pop() int32 {
	i := q.tree[1].unit
	if i < 0 {
		return -1
	}
	dq := &q.devs[q.units[i].dev]
	if len(dq.now) > 0 {
		dq.now, _ = q.heapPop(dq.now, false)
	} else {
		dq.later, _ = q.heapPop(dq.later, true)
	}
	return i
}

// occupy records that device d is busy until the given time and moves the
// units ready by then from its later heap to its now heap.
func (q *readyQueue) occupy(d int, until float64) {
	dq := &q.devs[d]
	dq.free = until
	for len(dq.later) > 0 && q.units[dq.later[0]].ready <= until {
		var i int32
		dq.later, i = q.heapPop(dq.later, true)
		dq.now = q.heapPush(dq.now, i, false)
	}
	q.fix(d)
}

// fix refreshes device d's leaf of the tournament and replays its path toward
// the root as far as the nodes change: a node that holds what it held leaves
// everything above it as it was.
func (q *readyQueue) fix(d int) {
	dq := &q.devs[d]
	e := entry{unit: -1}
	switch {
	case len(dq.now) > 0:
		e = entry{start: dq.free, unit: dq.now[0]}
	case len(dq.later) > 0:
		e = entry{start: q.units[dq.later[0]].ready, unit: dq.later[0]}
	}
	for n := q.leaves + d; q.tree[n] != e; {
		q.tree[n] = e
		if n == 1 {
			return
		}
		n /= 2
		e = q.winner(q.tree[2*n], q.tree[2*n+1])
	}
}

// winner returns the earlier of two tournament entries: least effective
// start, then the tail; an empty entry loses.
func (q *readyQueue) winner(a, b entry) entry {
	switch {
	case a.unit < 0:
		return b
	case b.unit < 0:
		return a
	case a.start != b.start:
		if a.start < b.start {
			return a
		}
		return b
	case q.units[a.unit].before(&q.units[b.unit]):
		return a
	}
	return b
}

// less orders a device heap: by ready time first in a later heap (byReady),
// then by the tail.
func (q *readyQueue) less(a, b int32, byReady bool) bool {
	ua, ub := &q.units[a], &q.units[b]
	if byReady && ua.ready != ub.ready {
		return ua.ready < ub.ready
	}
	return ua.before(ub)
}

// heapPush adds unit i to the binary min-heap h, within h's capacity.
func (q *readyQueue) heapPush(h []int32, i int32, byReady bool) []int32 {
	h = append(h, i)
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if !q.less(h[c], h[p], byReady) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
	return h
}

// heapPop removes the least unit of the non-empty binary min-heap h.
func (q *readyQueue) heapPop(h []int32, byReady bool) ([]int32, int32) {
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for p := 0; ; {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(h[c+1], h[c], byReady) {
			c++
		}
		if !q.less(h[c], h[p], byReady) {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	return h, top
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
