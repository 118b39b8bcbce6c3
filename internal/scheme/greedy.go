package scheme

import (
	"mario/internal/pipeline"
)

// unit is one compute instruction to be placed by the greedy list scheduler.
type unit struct {
	kind  pipeline.Kind // Forward, Backward, BackwardInput or BackwardWeight
	rank  uint8         // kindRank(kind), the first key of the tail order
	micro int32
	part  int32
	stage int32
	dev   int32

	// dependency bookkeeping
	waiting int32   // unresolved predecessors
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
//
// Units are laid out by arithmetic, not looked up: micro-batch m's units at
// stage s are a run of per units starting at (m·S + s)·per — the forward, the
// backward anchor and, when the backward is split, the weight-gradient half
// (unitAt) — so an edge names its two ends by index. The graph's buffers are
// a Builder's scratch.
type depGraph struct {
	r      *pipeline.Resolved
	stages int
	per    int // units per (micro, stage): 2, or 3 when the backward is split
	units  []unit
	deps   []dep // in addDep order, which schedule() keeps per predecessor
	// off and succ are the successors' compressed-sparse-row layout.
	off, succ []int32
	// at and byPart are the injection windows' counting sort by partition.
	at     []int
	byPart []int32
}

// The position of a unit among its (micro, stage) run of per units.
const (
	fwUnit = iota // the forward
	bwUnit        // the backward anchor (bwAnchor)
	wUnit         // the weight-gradient half, when the backward is split
)

// unitAt returns the index of micro-batch m's unit at stage s and position k.
func (g *depGraph) unitAt(m, s, k int) int32 {
	return int32((m*g.stages+s)*g.per + k)
}

// reset empties the graph for a build over the given placement of micros
// micro-batches, sized for what its caller is about to add: every micro-batch
// contributes, per stage, a forward and a backward unit (three units when
// the backward is split) and at most four edges (five when split) —
// forward→backward, the two cross-stage chains, one injection window, and
// BI→W.
func (g *depGraph) reset(r *pipeline.Resolved, micros int, split bool) {
	g.r, g.stages, g.per = r, r.Placement().NumStages(), 2
	edges := 4
	if split {
		g.per, edges = 3, 5
	}
	perStage := micros * g.stages
	g.units = grow(g.units, g.per*perStage)
	g.deps = grow(g.deps, edges*perStage)[:0]
}

// addDep records that unit to may not start before unit from has finished.
func (g *depGraph) addDep(from, to int32) {
	g.deps = append(g.deps, dep{from, to})
	g.units[to].waiting++
}

// successors lays the recorded edges out as one compressed-sparse-row array:
// the successors of unit i are succ[off[i]:off[i+1]], in the order addDep
// recorded them.
func (g *depGraph) successors() (off, succ []int32) {
	// Counted two slots up, the prefix sums leave unit i's start in off[i+1];
	// filling advances it to unit i's end, which is unit i+1's start.
	off = grow(g.off, len(g.units)+2)
	clear(off)
	for _, d := range g.deps {
		off[d.from+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	succ = grow(g.succ, len(g.deps))
	for _, d := range g.deps {
		succ[off[d.from+1]] = d.to
		off[d.from+1]++
	}
	g.off, g.succ = off, succ
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

// addMicroUnits places micro-batch m's per-stage compute units, riding
// partition part, together with the virtual-pipeline dependencies that tie
// them together: the forward chain down the stages (FW(m,s) after
// FW(m,s-1)), the backward chain up the stages (BW(m,s) after BW(m,s+1)),
// and FW(m,s) before BW(m,s). With split=true the fused BW is replaced by the
// BackwardInput/BackwardWeight pair: the input-gradient half inherits all of
// BW's edges (it alone sits on the cross-stage critical path), and the
// weight-gradient half depends only on its BI, which frees the scheduler to
// sink it into pipeline bubbles.
func (g *depGraph) addMicroUnits(m, part int, split bool) {
	kinds := [...]pipeline.Kind{fwUnit: pipeline.Forward, bwUnit: bwAnchor(split), wUnit: pipeline.BackwardWeight}
	for s := 0; s < g.stages; s++ {
		u := unit{micro: int32(m), part: int32(g.r.PartAt(part, s)), stage: int32(s)}
		u.dev = int32(g.r.Device(int(u.part), s))
		for k, kind := range kinds[:g.per] {
			u.kind, u.rank = kind, kindRank(kind)
			g.units[g.unitAt(m, s, k)] = u
		}
	}
	for s := 0; s < g.stages; s++ {
		fw, bw := g.unitAt(m, s, fwUnit), g.unitAt(m, s, bwUnit)
		g.addDep(fw, bw)
		if split {
			g.addDep(bw, g.unitAt(m, s, wUnit))
		}
		if s > 0 {
			g.addDep(g.unitAt(m, s-1, fwUnit), fw)
			g.addDep(bw, g.unitAt(m, s-1, bwUnit))
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
// stashes). parts[m] is the partition micro-batch m rides.
func (g *depGraph) addInjectionWindows(parts []int) {
	P := g.r.Placement().NumParts()
	// A stable counting sort by partition (every part lies in [0, P): the
	// registry layouts emit nothing else): partition p's micro-batches, in
	// injection order, are byPart[at[p]:at[p+1]]. Counted two slots up, as
	// in successors.
	at := grow(g.at, P+2)
	clear(at)
	for _, p := range parts {
		at[p+2]++
	}
	for p := 2; p < len(at); p++ {
		at[p] += at[p-1]
	}
	byPart := grow(g.byPart, len(parts))
	g.at, g.byPart = at, byPart
	for m, p := range parts {
		byPart[at[p+1]] = int32(m)
		at[p+1]++
	}
	for p := 0; p < P; p++ {
		seq := byPart[at[p]:at[p+1]]
		for k, m := range seq {
			for s := 0; s < g.stages; s++ {
				if w := g.stages - s; k >= w {
					g.addDep(g.unitAt(int(seq[k-w]), s, bwUnit), g.unitAt(int(m), s, fwUnit))
				}
			}
		}
	}
}

// schedule runs deterministic earliest-start list scheduling of the graph's
// units onto devices and returns the per-device instruction lists, carved
// from b's compute backing: each step places the ready unit with the least
// effective start max(ready, the time its device falls free), earlier tail
// first among equals. Ordering decisions use the unit times plus a small
// communication epsilon so that cross-device transfers break ties
// deterministically. The result depends only on the units and the dependency
// set — never on registration, edge or map iteration order: ready times are
// maxima, and the ready queue's order is a strict total order because no two
// units of a graph share a tail (DESIGN §12).
func (b *Builder) schedule(g *depGraph) [][]pipeline.Instr {
	const commEps = 1e-3
	units := g.units
	// Every unit passes through its device's heaps and lands in its device's
	// list, so the per-device unit counts size both.
	perDev := grow(b.perDev, g.r.Placement().NumDevices())
	clear(perDev)
	for i := range units {
		perDev[units[i].dev]++
	}
	b.perDev = perDev
	q := &b.q
	q.reset(units, perDev)
	lists := b.lists(len(perDev), func(d int) int { return perDev[d] })
	off, succ := g.successors()
	for i := range units {
		if units[i].waiting == 0 {
			q.push(int32(i))
		}
	}
	for i := q.pop(); i >= 0; i = q.pop() {
		u := &units[i]
		finish := max(u.ready, q.devs[u.dev].free) + unitTime(u.kind)
		q.occupy(int(u.dev), finish)
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

// graph composes, in b's scratch, the dependency graph every list-scheduled
// shape shares — per-micro-batch units, virtual-pipeline chains, 1F1B
// injection windows — for the scheduler to run over; parts[m] is the
// partition micro-batch m rides. Fused (split=false) it is Chimera's two
// mirrored 1F1B pipelines (the paper picks its Chimera schedule from the
// released chimera_pipeline_rank.py; the greedy merge reproduces its
// bidirectional bubble-overlap structure). Split, every backward is emitted
// as a BackwardInput/BackwardWeight pair, the injection windows anchor on the
// input-gradient half, and the scheduler fills device idle gaps with deferred
// weight-gradient units (Zero Bubble's central scheduling move).
func (b *Builder) graph(r *pipeline.Resolved, parts []int, split bool) *depGraph {
	g := &b.g
	g.reset(r, len(parts), split)
	for m, p := range parts {
		g.addMicroUnits(m, p, split)
	}
	g.addInjectionWindows(parts)
	return g
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
	// arena backs every device's two heaps.
	arena []int32
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

// reset empties the queue over the units, with perDev[d] of them on device
// d. A device's two heaps never hold more than its units between them, so
// both are carved, at that capacity, from one arena.
func (q *readyQueue) reset(units []unit, perDev []int) {
	q.units, q.leaves = units, 1
	for q.leaves < len(perDev) {
		q.leaves *= 2
	}
	q.tree = grow(q.tree, 2*q.leaves)
	for i := range q.tree {
		q.tree[i] = entry{unit: -1}
	}
	q.devs = grow(q.devs, len(perDev))
	q.arena = grow(q.arena, 2*len(units))
	arena := q.arena
	for d, n := range perDev {
		q.devs[d] = devQueue{now: arena[:0:n], later: arena[n : n : 2*n]}
		arena = arena[2*n:]
	}
}

// push adds a unit whose predecessors have all finished: its ready time is
// final.
func (q *readyQueue) push(i int32) {
	d := int(q.units[i].dev)
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
	return pipeline.Bidir(cfg.Devices), parts
}
