// Package graph implements Mario's graph tuner (§5.1): four optimization
// passes that tessellate activation checkpointing into a pipeline schedule by
// identifying and substituting instruction patterns. Passes 1–3 are local
// list rewrites; pass 4 (prepose-forward) is guided by the lightweight
// simulator, accepting only moves that reduce the simulated makespan.
//
// Every schedule has one owner. Pass 1 and SplitBackward's split rewrite every
// list into a new schedule and leave their input as it was; passes 2–4 edit,
// in place, the lists of a schedule their caller owns.
package graph

import (
	"context"
	"fmt"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// ApplyCheckpoint is pass 1: apply activation checkpointing to all paired
// forward and backward instructions. Every Forward becomes a CkptForward and
// a Recompute is inserted immediately before the corresponding Backward, so
// only one activation replica per stage is live at a time. ApplyCheckpoint
// returns a new schedule over fresh lists and leaves s as it was.
func ApplyCheckpoint(s *pipeline.Schedule) *pipeline.Schedule {
	// Count the Recompute insertions first so every rewritten list is carved,
	// as b[lo:hi:hi], from one backing allocated once at its final size; this
	// runs on Optimize's per-call path, where allocations are measurable GC
	// pressure.
	n := 0
	for _, list := range s.Lists {
		n += len(list)
		for _, in := range list {
			if in.Kind == pipeline.Backward || in.Kind == pipeline.BackwardInput {
				n++
			}
		}
	}
	backing := make([]pipeline.Instr, 0, n)
	lists := make([][]pipeline.Instr, len(s.Lists))
	for d, list := range s.Lists {
		lo := len(backing)
		for _, in := range list {
			switch in.Kind {
			case pipeline.Forward:
				in.Kind = pipeline.CkptForward
				backing = append(backing, in)
			case pipeline.Backward, pipeline.BackwardInput:
				// On split-backward schedules the recompute precedes the
				// input-gradient half — the B/W boundary is a legal split
				// point, and the deferred weight-gradient half reads only the
				// stash its BI left, never the recomputed activations.
				backing = append(backing,
					pipeline.Instr{Kind: pipeline.Recompute, Micro: in.Micro, Part: in.Part, Stage: in.Stage},
					in,
				)
			default:
				backing = append(backing, in)
			}
		}
		hi := len(backing)
		lists[d] = backing[lo:hi:hi]
	}
	return rewritten(s, lists, true)
}

// rewritten is the schedule a pass builds from s: s's scheme and resolved
// view over the given lists, checkpointed as given.
func rewritten(s *pipeline.Schedule, lists [][]pipeline.Instr, checkpointed bool) *pipeline.Schedule {
	c := pipeline.NewSchedule(s.Scheme, s.Resolved(), lists)
	c.Checkpointed = checkpointed
	return c
}

// OverlapRecompute is pass 2: prepose each Recompute past the RecvGrad
// instructions that precede it, so the recomputation runs concurrently with
// the next device's backward instead of serialising behind the gradient
// receive. (If RC_i were left after RG_i it would transitively wait for
// BW_i on the next device, losing the overlap — §5.1.) It edits s in place.
func OverlapRecompute(s *pipeline.Schedule) {
	for _, list := range s.Lists {
		for i := 0; i < len(list); i++ {
			if list[i].Kind != pipeline.Recompute {
				continue
			}
			j := i
			for j > 0 && list[j-1].Kind == pipeline.RecvGrad {
				list[j-1], list[j] = list[j], list[j-1]
				j--
			}
		}
	}
}

// RemoveRedundancy is pass 3: when a CkptForward and its Backward are
// adjacent (no other compute instruction between them on the device), the
// activation would be dropped and instantly restored; revert the pair to a
// plain Forward and delete the Recompute. It edits s in place.
func RemoveRedundancy(s *pipeline.Schedule) {
	S := s.NumStages()
	cells := s.Micros * S
	// Flat position indices per (micro, stage) cell, shared across devices,
	// replace the old per-device key→index maps. Parts are verified on use;
	// no supported placement puts two parts of the same (micro, stage) on one
	// device, and a part mismatch only skips the (inapplicable) rewrite. Every
	// cell starts absent (-1), and each device resets the cells its own list
	// wrote before the next one reads the tables.
	pos := make([]int32, 3*cells)
	for i := range pos {
		pos[i] = -1
	}
	bwPos, rcPos, saPos := pos[:cells], pos[cells:2*cells], pos[2*cells:]
	cell := func(in pipeline.Instr) int { return int(in.Micro)*S + int(in.Stage) }
	var dropped []bool
	for d := range s.Lists {
		list := s.Lists[d]
		for i, in := range list {
			if in.Micro < 0 {
				continue
			}
			switch in.Kind {
			case pipeline.Backward, pipeline.BackwardInput:
				// The input-gradient half is the backward anchor on split
				// schedules: it is what consumes the (re)computed activations.
				bwPos[cell(in)] = int32(i)
			case pipeline.Recompute:
				rcPos[cell(in)] = int32(i)
			case pipeline.SendAct:
				saPos[cell(in)] = int32(i)
			}
		}
		if cap(dropped) >= len(list) {
			dropped = dropped[:len(list)]
			for i := range dropped {
				dropped[i] = false
			}
		} else {
			dropped = make([]bool, len(list))
		}
		nDropped := 0
		for i := 0; i < len(list); i++ {
			in := list[i]
			if in.Kind != pipeline.CkptForward {
				continue
			}
			c := cell(in)
			bwIdx := int(bwPos[c])
			if bwIdx < i || list[bwIdx].Part != in.Part { // bwIdx < i covers the -1 "absent" case
				continue
			}
			rcIdx := int(rcPos[c])
			hasRC := rcIdx >= 0 && list[rcIdx].Part == in.Part
			redundant := true
			for k := i + 1; k < bwIdx; k++ {
				if list[k].Kind.IsCompute() && !(hasRC && k == rcIdx) {
					redundant = false
					break
				}
			}
			if !redundant {
				continue
			}
			list[i].Kind = pipeline.Forward
			if hasRC {
				dropped[rcIdx] = true
				nDropped++
			}
			// The send no longer reads a checkpoint staging buffer.
			if saIdx := int(saPos[c]); saIdx >= 0 && list[saIdx].Part == in.Part {
				list[saIdx].Buffered = false
			}
		}
		for _, in := range list {
			if in.Micro >= 0 {
				c := cell(in)
				bwPos[c], rcPos[c], saPos[c] = -1, -1, -1
			}
		}
		if nDropped > 0 {
			out := list[:0]
			for i, in := range list {
				if !dropped[i] {
					out = append(out, in)
				}
			}
			s.Lists[d] = out
		}
	}
}

// Options parameterises the simulator-guided passes and the overall
// Optimize driver.
type Options struct {
	// Estimator supplies per-instruction latencies and memory for the
	// simulator; required by Optimize and SplitBackward.
	Estimator *cost.Estimator
	// Sim configures the acceptance simulations (memory limit, DP).
	Sim sim.Options
	// MaxRounds bounds the iterative pass applications; zero means
	// DefaultMaxRounds.
	MaxRounds int
	// Engines is the simulator bundle the run evaluates on. The caller that
	// passes one owns it — a search reuses one bundle per goroutine across
	// all its runs and reports its counts itself; nil makes the run use a
	// fresh bundle whose counts nobody reads. Results are identical either
	// way.
	Engines *Engines
	// Span, when live, parents the run's telemetry: OptimizeContext records
	// one PhaseRound child per simulator-guided prepose round, with
	// deterministic attributes (moves, improvement, makespan). The zero
	// Span disables tracing at zero cost.
	Span telemetry.Span
}

// DefaultMaxRounds is the prepose round budget of a run that names none:
// graph.Options and tuner.Space resolve a zero MaxRounds to it alike.
const DefaultMaxRounds = 8

// engines returns the bundle a run evaluates on: the caller's, or a fresh one.
func (o Options) engines() *Engines {
	if o.Engines != nil {
		return o.Engines
	}
	return NewEngines()
}

// Optimize applies the full pass pipeline — apply-checkpoint once, then
// overlap-recompute, remove-redundancy and prepose-forward iteratively until
// the simulated makespan stops improving. It returns the optimized schedule
// (the input is not modified) and its simulation result.
func Optimize(s *pipeline.Schedule, opt Options) (*pipeline.Schedule, *sim.Result, error) {
	return OptimizeContext(context.Background(), s, opt)
}

// OptimizeContext is Optimize with cancellation: the cheap structural passes
// always run, but the simulator-guided prepose rounds — the expensive part —
// check ctx between rounds and between candidate simulations, and a
// cancelled context aborts the call with ctx's error. A completed
// OptimizeContext is byte-identical to Optimize.
//
// The result is not re-validated: every pass keeps a valid schedule valid
// (FuzzGraphPassInvariants holds them to that), and whoever lets a schedule
// leave the program — a search's winner, a plan, a saved file — validates
// it there.
func OptimizeContext(ctx context.Context, s *pipeline.Schedule, opt Options) (*pipeline.Schedule, *sim.Result, error) {
	if opt.Estimator == nil {
		return nil, nil, fmt.Errorf("graph: Optimize requires an estimator")
	}
	cur := ApplyCheckpoint(s)
	OverlapRecompute(cur)
	RemoveRedundancy(cur)
	// remove-redundancy may expose new overlap opportunities and vice
	// versa; they are cheap, so run them to a (two-round) fixpoint before
	// the guided pass.
	OverlapRecompute(cur)
	eng := opt.engines()
	// Candidate acceptance only compares makespans and peaks, so the inner
	// loop always runs without timeline recording; the caller-visible result
	// is re-derived with the requested options at the end.
	inner := opt
	inner.Sim.NoTimeline = true
	best, err := eng.Main.Simulate(cur, opt.Estimator, inner.Sim)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: simulating checkpointed schedule: %w", err)
	}
	eng.chain = eng.Main.CriticalChain(eng.chain[:0])
	rounds := opt.MaxRounds
	if rounds <= 0 {
		rounds = DefaultMaxRounds
	}
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		rs := opt.Span.Child(telemetry.PhaseRound, fmt.Sprintf("%02d", r+1))
		nextRes, moves, err := preposeRound(ctx, cur, best, inner, eng)
		if err != nil {
			rs.Discard()
			return nil, nil, err
		}
		eng.rounds++
		rs.SetBool("improved", nextRes != best)
		rs.SetInt("moves", int64(moves))
		rs.SetFloat("makespan", nextRes.Total)
		rs.End()
		if nextRes == best {
			break
		}
		best = nextRes
	}
	if !opt.Sim.NoTimeline {
		best, err = eng.Main.Simulate(cur, opt.Estimator, opt.Sim)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: simulating optimized schedule: %w", err)
		}
	}
	return cur, best, nil
}
