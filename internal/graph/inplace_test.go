package graph

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
)

// undoCounts tallies what checkUndo took back.
type undoCounts struct{ moves, promotions int }

// checkUndo drives OptimizeContext's rounds on a clone of s — a schedule the
// structural passes have already run on — and, on every round's incumbent,
// makes and takes back each device's prepose, the composite candidate, and
// the buffered-send promotion both on the incumbent and on the composite:
// each undo must restore every list instruction for instruction, Buffered
// included. A round with no winner must leave its incumbent as it found it.
// s is left as it was.
func checkUndo(s *pipeline.Schedule, opt Options) (undoCounts, error) {
	var n undoCounts
	cur := cloneSchedule(s)
	opt.Sim.NoTimeline = true
	eng := NewEngines()
	best, err := eng.Main.Simulate(cur, opt.Estimator, opt.Sim)
	if err != nil {
		return n, err
	}
	eng.chain = eng.Main.CriticalChain(eng.chain[:0])
	for round := 1; round <= 16; round++ {
		want := make([][]pipeline.Instr, len(cur.Lists))
		for d, list := range cur.Lists {
			want[d] = slices.Clone(list)
		}
		restored := func(what string) error {
			if reflect.DeepEqual(cur.Lists, want) {
				return nil
			}
			return fmt.Errorf("round %d: undoing %s did not restore the incumbent\nwant:\n%v\ngot:\n%s", round, what, want, cur)
		}
		promote := func(what string) error {
			before := make([][]pipeline.Instr, len(cur.Lists))
			for d, list := range cur.Lists {
				before[d] = slices.Clone(list)
			}
			log := promoteBufferedSends(cur, nil)
			n.promotions += len(log)
			undoPromotions(cur, log)
			if !reflect.DeepEqual(cur.Lists, before) {
				return fmt.Errorf("round %d: undoing the promotion of %d sends %s did not restore the lists", round, len(log), what)
			}
			return nil
		}

		for d := 0; d < cur.NumDevices(); d++ {
			if p, ok := nextPrepose(cur, d); ok {
				p.undo(cur, d, p.apply(cur, d))
				n.moves++
				if err := restored(fmt.Sprintf("the prepose %+v on device %d", p, d)); err != nil {
					return n, err
				}
			}
		}
		if err := promote("on the incumbent"); err != nil {
			return n, err
		}
		var comp []placed
		for d := 0; d < cur.NumDevices(); d++ {
			if p, ok := nextPrepose(cur, d); ok {
				comp = append(comp, placed{d: d, p: p, buffered: p.apply(cur, d)})
			}
		}
		if err := promote("on the composite"); err != nil {
			return n, err
		}
		for k := len(comp) - 1; k >= 0; k-- {
			comp[k].p.undo(cur, comp[k].d, comp[k].buffered)
		}
		n.moves += len(comp)
		if err := restored(fmt.Sprintf("the composite of %d moves", len(comp))); err != nil {
			return n, err
		}

		next, _, err := preposeRound(context.Background(), cur, best, opt, eng)
		if err != nil {
			return n, err
		}
		if next == best {
			return n, restored("a round with no winner")
		}
		best = next
	}
	return n, nil
}

// structural runs the structural passes on a copy of s, as OptimizeContext
// does before its rounds.
func structural(s *pipeline.Schedule) *pipeline.Schedule {
	c := ApplyCheckpoint(s)
	OverlapRecompute(c)
	RemoveRedundancy(c)
	OverlapRecompute(c)
	return c
}

// TestInPlaceMovesUndo runs checkUndo over the fuzz target's seed schedules,
// on equal and unequal device speeds, and requires the seeds to exercise both
// kinds of in-place move.
func TestInPlaceMovesUndo(t *testing.T) {
	var total undoCounts
	for _, seed := range passSeeds {
		s, ok := passSchedule(seed[0], seed[1], seed[2], seed[3])
		if !ok {
			continue
		}
		for _, speeds := range [][]float64{nil, {1, 0.8, 1.25}} {
			e := cost.Uniform(s.NumStages(), 1, 2, 0.25)
			if speeds != nil {
				e.DeviceSpeed = make([]float64, s.NumDevices())
				for i := range e.DeviceSpeed {
					e.DeviceSpeed[i] = speeds[i%len(speeds)]
				}
			}
			n, err := checkUndo(structural(s), Options{Estimator: e})
			if err != nil {
				t.Fatalf("%s d=%d n=%d speeds %v: %v", s.Scheme, s.NumDevices(), s.Micros, speeds, err)
			}
			total.moves += n.moves
			total.promotions += n.promotions
		}
	}
	if total.moves == 0 || total.promotions == 0 {
		t.Errorf("the seeds took back %d moves and %d promotions; both must be exercised", total.moves, total.promotions)
	}
}

// TestApplyAllocatesNothing: once a schedule owns its lists, as a round's
// incumbent does, a prepose and its undo copy no instruction.
func TestApplyAllocatesNothing(t *testing.T) {
	s := structural(build1f1b(t, 4, 8))
	p, ok := nextPrepose(s, 0)
	if !ok {
		t.Fatal("no prepose on device 0")
	}
	if n := testing.AllocsPerRun(100, func() { p.undo(s, 0, p.apply(s, 0)) }); n != 0 {
		t.Errorf("a prepose and its undo allocate %v objects", n)
	}
}
