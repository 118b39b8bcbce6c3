package graph

import (
	"context"
	"fmt"

	"mario/internal/pipeline"
	"mario/internal/sim"
)

// ScanOracle is the filter-off run of the prepose scan. It drives
// OptimizeContext's rounds from cur — a schedule the structural passes have
// already run on — with the production preposeRound, and before each round
// simulates, on an engine of its own, every single-device candidate offChain
// refuses against the round's incumbent: a candidate that passes the
// strict-improvement test after all is the error. It returns the schedule the
// rounds end on (what Optimize returns for the same input) and how many
// filtered candidates it simulated.
func ScanOracle(cur *pipeline.Schedule, opt Options) (*pipeline.Schedule, int, error) {
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
			c := cur.Clone()
			p.apply(c, d)
			r, _, err := simCandidate(&side, c, opt)
			if err != nil {
				return nil, checked, err
			}
			checked++
			if r != nil && r.Total < best.Total-improveEps {
				return nil, checked, fmt.Errorf("round %d: filtered prepose on device %d finishes at %v, incumbent at %v\n%s",
					round, d, r.Total, best.Total, cur)
			}
		}
		next, nextRes, _, err := preposeRound(context.Background(), cur, best, opt, eng)
		if err != nil {
			return nil, checked, err
		}
		if nextRes == best {
			break
		}
		cur, best = next, nextRes
	}
	return cur, checked, nil
}
