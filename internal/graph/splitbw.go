package graph

import (
	"fmt"

	"mario/internal/pipeline"
	"mario/internal/sim"
)

// SplitBackward implements the ZB-H1-style extension the paper lists as
// future work (§8: "Mario can further adopt the split backward parts of
// ZB-H1 to overlap remaining bubbles"): every Backward is split into its
// input-gradient half (BackwardInput, which the upstream stage's backward
// transitively waits on) and its weight-gradient half (BackwardWeight, which
// nothing waits on). The SendGrad re-anchors directly after the
// input-gradient half, unblocking the upstream device earlier; the
// weight-gradient halves are then sunk into later bubbles when the simulator
// confirms an improvement within the memory budget.
//
// The input schedule is not modified. Estimator.BwSplitRatio controls the
// B/W split of the backward latency.
func SplitBackward(s *pipeline.Schedule, opt Options) (*pipeline.Schedule, *sim.Result, error) {
	if opt.Estimator == nil {
		return nil, nil, fmt.Errorf("graph: SplitBackward requires an estimator")
	}
	eng := opt.engines().Main
	// As in Optimize, candidate acceptance needs no timeline; the returned
	// result is re-derived with the caller's options at the end.
	inner := opt
	inner.Sim.NoTimeline = true
	cur := splitAll(s)
	best, err := eng.Simulate(cur, opt.Estimator, inner.Sim)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: simulating split schedule: %w", err)
	}
	// Reject the plain split if it regressed (possible when extra launch
	// overheads outweigh the unblocking benefit).
	if base, err := eng.Simulate(s, opt.Estimator, inner.Sim); err == nil && base.Total < best.Total {
		if !opt.Sim.NoTimeline {
			if base, err = eng.Simulate(s, opt.Estimator, opt.Sim); err != nil {
				return nil, nil, fmt.Errorf("graph: simulating unsplit schedule: %w", err)
			}
		}
		return s.Clone(), base, nil
	}

	// Sink candidates: all weight-gradient halves per device to the end of
	// the iteration (just before AllReduce), accepted device by device when
	// the simulator improves without OOM.
	for d := 0; d < cur.NumDevices(); d++ {
		cand, ok := sinkWeightGrads(cur, d)
		if !ok {
			continue
		}
		r, _, err := simCandidate(eng, cand, inner)
		if err != nil {
			return nil, nil, err
		}
		if r != nil && r.Total < best.Total-improveEps {
			cur, best = cand, r
		}
	}
	if !opt.Sim.NoTimeline {
		best, err = eng.Simulate(cur, opt.Estimator, opt.Sim)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: simulating split schedule: %w", err)
		}
	}
	return cur, best, nil
}

// splitAll rewrites every Backward into [BackwardInput, (SendGrad),
// BackwardWeight], keeping the gradient send immediately after the
// input-gradient half.
func splitAll(s *pipeline.Schedule) *pipeline.Schedule {
	c := s.Clone()
	for d, list := range c.Lists {
		out := make([]pipeline.Instr, 0, len(list)+len(list)/3)
		for i := 0; i < len(list); i++ {
			in := list[i]
			if in.Kind != pipeline.Backward {
				out = append(out, in)
				continue
			}
			bi := in
			bi.Kind = pipeline.BackwardInput
			wg := in
			wg.Kind = pipeline.BackwardWeight
			out = append(out, bi)
			if i+1 < len(list) {
				next := list[i+1]
				if next.Kind == pipeline.SendGrad && next.Micro == in.Micro && next.Stage == in.Stage {
					out = append(out, next)
					i++
				}
			}
			out = append(out, wg)
		}
		c.SetList(d, out)
	}
	return c
}

// sinkWeightGrads returns a clone of s with all BackwardWeight instructions of
// device d moved to just before its AllReduce (or the end of the list),
// preserving their relative order. Returns false, and clones nothing, when the
// device has none to move.
func sinkWeightGrads(s *pipeline.Schedule, d int) (*pipeline.Schedule, bool) {
	list := s.Lists[d]
	var kept, sunk []pipeline.Instr
	insertAt := -1
	for _, in := range list {
		if in.Kind == pipeline.BackwardWeight {
			sunk = append(sunk, in)
			continue
		}
		if in.Kind == pipeline.AllReduce && insertAt < 0 {
			insertAt = len(kept)
		}
		kept = append(kept, in)
	}
	if len(sunk) == 0 {
		return nil, false
	}
	if insertAt < 0 {
		insertAt = len(kept)
	}
	out := make([]pipeline.Instr, 0, len(list))
	out = append(out, kept[:insertAt]...)
	out = append(out, sunk...)
	out = append(out, kept[insertAt:]...)
	c := s.Clone()
	c.SetList(d, out)
	return c, true
}
