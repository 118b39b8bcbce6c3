package graph

import (
	"context"
	"fmt"
	"slices"

	"mario/internal/pipeline"
	"mario/internal/sim"
)

// cloneSchedule returns a deep copy of s: its lists share no element with
// s's, so an in-place pass run on either leaves the other as it was.
func cloneSchedule(s *pipeline.Schedule) *pipeline.Schedule {
	c := *s
	c.Lists = make([][]pipeline.Instr, len(s.Lists))
	for d, l := range s.Lists {
		c.Lists[d] = slices.Clone(l)
	}
	return &c
}

// ScanOracle is the filter-off run of the prepose scan. It drives
// OptimizeContext's rounds on a clone of s — a schedule the structural passes
// have already run on — with the production preposeRound, and before each
// round simulates, on an engine of its own, every single-device candidate
// offChain refuses against the round's incumbent: a candidate that passes the
// strict-improvement test after all is the error. It returns the schedule the
// rounds end on (what Optimize returns for the same input) and how many
// filtered candidates it simulated; s is left as it was.
func ScanOracle(s *pipeline.Schedule, opt Options) (*pipeline.Schedule, int, error) {
	cur := cloneSchedule(s)
	opt.Sim.NoTimeline = true
	eng := NewEngines()
	best, err := eng.Main.Simulate(cur, opt.Estimator, opt.Sim)
	if err != nil {
		return nil, 0, err
	}
	eng.chain = eng.Main.CriticalChain(eng.chain[:0])
	var side sim.Simulator
	checked := 0
	for round := 1; round <= 16; round++ {
		for d := 0; d < cur.NumDevices(); d++ {
			p, ok := nextPrepose(cur, d)
			if !ok || !eng.offChain(d, p) {
				continue
			}
			buffered := p.apply(cur, d)
			r, _, err := simCandidate(&side, cur, opt)
			if err != nil {
				return nil, checked, err
			}
			p.undo(cur, d, buffered)
			checked++
			if r != nil && r.Total < best.Total-improveEps {
				return nil, checked, fmt.Errorf("round %d: filtered prepose on device %d finishes at %v, incumbent at %v\n%s",
					round, d, r.Total, best.Total, cur)
			}
		}
		next, _, err := preposeRound(context.Background(), cur, best, opt, eng)
		if err != nil {
			return nil, checked, err
		}
		if next == best {
			break
		}
		best = next
	}
	return cur, checked, nil
}
