package scheme

import (
	"fmt"
	"reflect"
	"testing"

	"mario/internal/pipeline"
)

// scanQueue is the list scheduler's reference ready queue: every pop scans
// all schedulable units for the best under better. The heap queue
// (readyQueue) must pop the same units in the same order.
type scanQueue struct {
	units []unit
	idx   []int32
}

// popBest removes and returns the best schedulable unit: minimal effective
// start time max(ready, devFree), then backward-anchor before Forward before
// BackwardWeight, then lowest micro, part and stage ids.
func (q *scanQueue) popBest(devFree []float64) int32 {
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

// better is the scan's order: whether ua is scheduled before ub given when
// each one's device falls free.
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

// scanSchedule is depGraph.schedule over the scan queue. It schedules a copy
// of the graph's units, so the graph itself stays schedulable.
func scanSchedule(g *depGraph) [][]pipeline.Instr {
	const commEps = 1e-3
	units := append([]unit(nil), g.units...)
	D := g.r.Placement().NumDevices()
	devFree := make([]float64, D)
	lists := make([][]pipeline.Instr, D)
	off, succ := g.successors()
	q := &scanQueue{units: units}
	for i := range units {
		if units[i].waiting == 0 {
			q.idx = append(q.idx, int32(i))
		}
	}
	for len(q.idx) > 0 {
		i := q.popBest(devFree)
		u := &units[i]
		start := u.ready
		if devFree[u.dev] > start {
			start = devFree[u.dev]
		}
		finish := start + unitTime(u.kind)
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
				q.idx = append(q.idx, si)
			}
		}
	}
	return lists
}

// listScheduled reports whether Build composes the scheme's order as a
// depGraph (orderGreedy) rather than a closed form.
func listScheduled(s pipeline.Scheme) bool {
	return s == pipeline.SchemeChimera || s.SplitsBackward()
}

// schemeGraph composes the dependency graph Build list-schedules for a
// depGraph scheme, as orderGreedy does.
func schemeGraph(t *testing.T, s pipeline.Scheme, cfg Config) (*pipeline.Resolved, *depGraph) {
	t.Helper()
	gen, cfg, err := lookup(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, parts := gen.layout(cfg)
	r := pipeline.Resolve(pl, cfg.Micros)
	micros := make([]microAssign, len(parts))
	for m, p := range parts {
		micros[m] = microAssign{micro: m, part: p}
	}
	return r, greedyGraph(r, micros, s.SplitsBackward())
}

// checkBuildMatchesScan requires got — the schedule Build returned for s and
// cfg — to equal, instruction for instruction, the scheme's graph scheduled by
// the scan oracle and completed the way Build completes it. It also checks
// that no two units of the graph share a tail: the fact that makes the queue's
// order a strict total order with no device tie-break.
func checkBuildMatchesScan(t *testing.T, s pipeline.Scheme, cfg Config, got *pipeline.Schedule) {
	t.Helper()
	what := fmt.Sprintf("%s d=%d n=%d", s, cfg.Devices, cfg.Micros)
	r, g := schemeGraph(t, s, cfg)
	type tail struct {
		rank               uint8
		micro, part, stage int
	}
	seen := make(map[tail]pipeline.Kind, len(g.units))
	for _, u := range g.units {
		k := tail{u.rank, u.micro, u.part, u.stage}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s: %v and %v share the tail %+v", what, prev, u.kind, k)
		}
		seen[k] = u.kind
	}
	want := pipeline.NewSchedule(got.Scheme, r, scanSchedule(g))
	pipeline.InsertComm(want)
	if !reflect.DeepEqual(got.Lists, want.Lists) {
		t.Fatalf("%s: the heap queue's schedule differs from the scan's\nheap:\n%s\nscan:\n%s", what, got, want)
	}
}

// TestReadyQueueMatchesScan: every caller of the list scheduler — Chimera,
// ZB-H1 and DualPipe-D through Build — emits byte-identical schedules under
// the heap queue and the scan oracle, over FuzzSchemeBuild's domain and
// search-sized shapes, and no graph has two units with one tail.
func TestReadyQueueMatchesScan(t *testing.T) {
	for _, s := range Schemes() {
		if !listScheduled(s) {
			continue
		}
		for d := 1; d <= 12; d++ {
			for n := 1; n <= 24; n++ {
				cfg := Config{Devices: d, Micros: n}
				if sched, err := Build(s, cfg); err == nil {
					checkBuildMatchesScan(t, s, cfg, sched)
				}
			}
		}
		for _, n := range []int{16, 64, 128} {
			cfg := Config{Devices: 64, Micros: n}
			checkBuildMatchesScan(t, s, cfg, mustBuild(t, s, cfg))
		}
	}
}
