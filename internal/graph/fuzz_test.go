package graph

import (
	"fmt"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

// passSeeds are FuzzGraphPassInvariants' seed inputs: scheme selector,
// devices, micro-batches and chunks, as passSchedule reads them.
var passSeeds = [][4]uint8{
	{0, 4, 8, 2}, {1, 4, 6, 2}, {2, 6, 12, 2}, {3, 4, 8, 2},
	{1, 8, 3, 1}, {4, 4, 8, 2}, {5, 4, 8, 2},
}

// passSchedule builds the schedule a FuzzGraphPassInvariants input names,
// false when its scheme refuses the shape.
func passSchedule(sel, devices, micros, chunks uint8) (*pipeline.Schedule, bool) {
	schemes := []pipeline.Scheme{
		pipeline.SchemeGPipe,
		pipeline.Scheme1F1B,
		pipeline.SchemeChimera,
		pipeline.SchemeInterleave,
		pipeline.SchemeZBH1,
		pipeline.SchemeDualPipeD,
	}
	s, err := scheme.Build(schemes[int(sel)%len(schemes)], scheme.Config{
		Devices: int(devices)%10 + 1,
		Micros:  int(micros)%16 + 1,
		Chunks:  int(chunks)%3 + 1,
	})
	return s, err == nil
}

// countKinds tallies the per-kind instruction counts of a schedule.
func countKinds(s *pipeline.Schedule) map[pipeline.Kind]int {
	out := make(map[pipeline.Kind]int)
	for _, list := range s.Lists {
		for _, in := range list {
			out[in.Kind]++
		}
	}
	return out
}

// FuzzGraphPassInvariants runs the local rewrite passes (apply-checkpoint,
// overlap-recompute, remove-redundancy) over fuzz-chosen schedules and checks
// the structural invariants the simulator and executor rely on:
//
//   - instruction-count conservation: forward-like work (Forward +
//     CkptForward) and Backward counts are unchanged, every CkptForward has
//     exactly one Recompute, and communication instructions are neither
//     created nor destroyed;
//   - no duplicate (device, micro, part) FW/BW pairs: each compute identity
//     (kind, micro, part, stage) appears at most once;
//   - the rewritten schedule still passes pipeline.Validate.
//
// It then runs the whole Optimize — the simulator-guided prepose rounds
// included — and SplitBackward on top of it, and requires pipeline.Validate of
// both results. The passes do not validate what they return and a search
// validates only its winner, so this is the net under every explored point. On
// equal and on unequal device speeds, ScanOracle replays the rounds with every
// candidate the critical-chain filter refuses simulated anyway: none may
// improve, and the replay must end on the schedule Optimize returned.
func FuzzGraphPassInvariants(f *testing.F) {
	for _, seed := range passSeeds {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, sel, devices, micros, chunks uint8) {
		sched, ok := passSchedule(sel, devices, micros, chunks)
		if !ok {
			return
		}
		s, d, n, v := sched.Scheme, sched.NumDevices(), sched.Micros, int(chunks)%3+1
		before := countKinds(sched)

		c := ApplyCheckpoint(sched)
		OverlapRecompute(c)
		RemoveRedundancy(c)
		OverlapRecompute(c)

		after := countKinds(c)
		if got, want := after[pipeline.Forward]+after[pipeline.CkptForward],
			before[pipeline.Forward]; got != want {
			t.Fatalf("%s d=%d n=%d v=%d: forward-like count %d, want %d", s, d, n, v, got, want)
		}
		for _, k := range []pipeline.Kind{pipeline.Backward, pipeline.BackwardInput, pipeline.BackwardWeight} {
			if got, want := after[k], before[k]; got != want {
				t.Fatalf("%s d=%d n=%d v=%d: %v count %d, want %d", s, d, n, v, k, got, want)
			}
		}
		if got, want := after[pipeline.Recompute], after[pipeline.CkptForward]; got != want {
			t.Fatalf("%s d=%d n=%d v=%d: %d recomputes for %d checkpointed forwards", s, d, n, v, got, want)
		}
		for _, k := range []pipeline.Kind{
			pipeline.SendAct, pipeline.RecvAct, pipeline.SendGrad, pipeline.RecvGrad,
			pipeline.AllReduce, pipeline.OptimizerStep,
		} {
			if after[k] != before[k] {
				t.Fatalf("%s d=%d n=%d v=%d: %v count changed %d -> %d", s, d, n, v, k, before[k], after[k])
			}
		}

		// No duplicate compute identities: at most one forward-like, one
		// backward, one recompute per (device, micro, part, stage).
		seen := make(map[pipeline.Key]int)
		for dev, list := range c.Lists {
			for _, in := range list {
				if !in.Kind.IsCompute() || in.Kind == pipeline.AllReduce || in.Kind == pipeline.OptimizerStep {
					continue
				}
				k := in.Key()
				// Fold Forward and CkptForward into one identity: a micro's
				// forward must run exactly once either way.
				if k.Kind == pipeline.CkptForward {
					k.Kind = pipeline.Forward
				}
				if prev, dup := seen[k]; dup {
					t.Fatalf("%s d=%d n=%d v=%d: duplicate %v on device %d (first on %d)", s, d, n, v, in, dev, prev)
				}
				seen[k] = dev
			}
		}

		if err := pipeline.Validate(c); err != nil {
			t.Fatalf("%s d=%d n=%d v=%d: rewritten schedule invalid: %v", s, d, n, v, err)
		}

		opts := Options{Estimator: cost.Uniform(sched.NumStages(), 1, 2, 0.25),
			Sim: sim.Options{NoTimeline: true}}
		opt, _, err := Optimize(sched, opts)
		if err != nil {
			t.Fatalf("%s d=%d n=%d v=%d: Optimize: %v", s, d, n, v, err)
		}
		if err := pipeline.Validate(opt); err != nil {
			t.Fatalf("%s d=%d n=%d v=%d: optimized schedule invalid: %v", s, d, n, v, err)
		}
		hetero := opts
		hetero.Estimator = cost.Uniform(sched.NumStages(), 1, 2, 0.25)
		hetero.Estimator.DeviceSpeed = make([]float64, sched.NumDevices())
		for i := range hetero.Estimator.DeviceSpeed {
			hetero.Estimator.DeviceSpeed[i] = []float64{1, 0.8, 1.25}[i%3]
		}
		final, _, err := ScanOracle(c, opts)
		if err == nil && final.String() != opt.String() {
			err = fmt.Errorf("the replay ends on another schedule than Optimize")
		}
		if err == nil {
			_, _, err = ScanOracle(c, hetero)
		}
		if err != nil {
			t.Fatalf("%s d=%d n=%d v=%d: scan filter oracle: %v", s, d, n, v, err)
		}
		if _, err := checkUndo(c, opts); err != nil {
			t.Fatalf("%s d=%d n=%d v=%d: in-place moves: %v", s, d, n, v, err)
		}
		split, _, err := SplitBackward(opt, opts)
		if err != nil {
			t.Fatalf("%s d=%d n=%d v=%d: SplitBackward: %v", s, d, n, v, err)
		}
		if err := pipeline.Validate(split); err != nil {
			t.Fatalf("%s d=%d n=%d v=%d: split schedule invalid: %v", s, d, n, v, err)
		}
	})
}
