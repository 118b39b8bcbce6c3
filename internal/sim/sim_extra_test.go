package sim_test

import (
	"errors"
	"math"
	"testing"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

func build(t *testing.T, s pipeline.Scheme, cfg scheme.Config) *pipeline.Schedule {
	t.Helper()
	sched, err := scheme.Build(s, cfg)
	if err != nil {
		t.Fatalf("Build(%s, %+v): %v", s, cfg, err)
	}
	return sched
}

func simulate(t *testing.T, s *pipeline.Schedule, e *cost.Estimator, opt sim.Options) *sim.Result {
	t.Helper()
	r, err := sim.Simulate(s, e, opt)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return r
}

// TestDeadlockDetected: a crossed schedule (receive posted before the send it
// transitively depends on) is reported as sim.ErrDeadlock instead of looping
// forever — the receive waits on a message whose producer is blocked behind it.
func TestDeadlockDetected(t *testing.T) {
	pl := pipeline.Linear(2)
	s := pipeline.NewSchedule(pipeline.Scheme1F1B, pipeline.Resolve(pl, 1), [][]pipeline.Instr{
		{
			{Kind: pipeline.RecvGrad, Micro: 0, Stage: 0},
			{Kind: pipeline.Forward, Micro: 0, Stage: 0},
			{Kind: pipeline.SendAct, Micro: 0, Stage: 0},
			{Kind: pipeline.Backward, Micro: 0, Stage: 0},
		},
		{
			{Kind: pipeline.RecvAct, Micro: 0, Stage: 1},
			{Kind: pipeline.Forward, Micro: 0, Stage: 1},
			{Kind: pipeline.Backward, Micro: 0, Stage: 1},
			{Kind: pipeline.SendGrad, Micro: 0, Stage: 1},
		},
	})
	e := cost.Uniform(2, 1, 2, 0.25)
	if _, err := sim.Simulate(s, e, sim.Options{}); !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestNoTimelineMatchesTimeline: the NoTimeline fast path yields identical
// totals and memory.
func TestNoTimelineMatchesTimeline(t *testing.T) {
	s := build(t, pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	a := simulate(t, s, e, sim.Options{})
	b := simulate(t, s, e, sim.Options{NoTimeline: true})
	if a.Total != b.Total {
		t.Errorf("totals differ: %v vs %v", a.Total, b.Total)
	}
	for d := range a.PeakMem {
		if a.PeakMem[d] != b.PeakMem[d] {
			t.Errorf("dev%d peaks differ", d)
		}
	}
	if b.Timeline != nil {
		t.Error("NoTimeline recorded records")
	}
}

// TestBottleneckStageDominates: with one slow stage, the makespan grows by
// ≈N × the extra time (the slow stage becomes the pipeline's drum beat).
func TestBottleneckStageDominates(t *testing.T) {
	const d, n = 4, 16
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	e := cost.Uniform(d, 1, 2, 0.25)
	base := simulate(t, s, e, sim.Options{})
	slow := cost.Uniform(d, 1, 2, 0.25)
	slow.FwTime[2] = 2 // stage 2 forward doubles
	slow.BwTime[2] = 4
	r := simulate(t, s, slow, sim.Options{})
	extra := r.Total - base.Total
	// Each of the N micros pays roughly (1 + 2) extra on the slow stage.
	want := float64(n) * 3
	if math.Abs(extra-want) > want*0.35 {
		t.Errorf("slow stage added %v, want ≈%v", extra, want)
	}
}

// TestCommLatencyStretchesPipeline: non-zero p2p time increases the
// makespan and the effect scales with the number of cross-stage hops on the
// critical path.
func TestCommLatencyStretchesPipeline(t *testing.T) {
	const d, n = 4, 8
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	free := cost.Uniform(d, 1, 2, 0.25)
	costly := cost.Uniform(d, 1, 2, 0.25)
	costly.ActP2PBytes = 1
	costly.GradP2PBytes = 1
	costly.LinkBandwidth = 10 // 0.1 per hop
	a := simulate(t, s, free, sim.Options{})
	b := simulate(t, s, costly, sim.Options{})
	if b.Total <= a.Total {
		t.Errorf("comm cost did not stretch the pipeline: %v vs %v", b.Total, a.Total)
	}
}

// TestLaunchOverheadCountsPerInstruction: the framework bias b adds to every
// instruction, so the checkpointed schedule (more instructions) pays more —
// the mechanism behind §6.1's ovlp slowdown on small models.
func TestLaunchOverheadCountsPerInstruction(t *testing.T) {
	const d, n = 4, 8
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	e := cost.Uniform(d, 1, 2, 0.25)
	opt, _, err := graph.Optimize(s, graph.Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	withOvh := cost.Uniform(d, 1, 2, 0.25)
	withOvh.LaunchOverhead = 0.2
	rBase := simulate(t, s, withOvh, sim.Options{})
	rOpt := simulate(t, opt, withOvh, sim.Options{})
	noOvh := cost.Uniform(d, 1, 2, 0.25)
	rBase0 := simulate(t, s, noOvh, sim.Options{})
	rOpt0 := simulate(t, opt, noOvh, sim.Options{})
	gapWith := rOpt.Total / rBase.Total
	gapWithout := rOpt0.Total / rBase0.Total
	if gapWith <= gapWithout {
		t.Errorf("launch overhead should widen the ckpt gap: %v vs %v", gapWith, gapWithout)
	}
}

// TestSplitBackwardSimDurations: BI+WG durations sum to the whole backward.
func TestSplitBackwardSimDurations(t *testing.T) {
	const d, n = 2, 2
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	e := cost.Uniform(d, 1, 2, 0.25)
	split, _, err := graph.SplitBackward(s, graph.Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	r := simulate(t, split, e, sim.Options{})
	var bi, wg float64
	for _, rec := range r.Timeline {
		switch rec.Kind {
		case pipeline.BackwardInput:
			bi += rec.Dur()
		case pipeline.BackwardWeight:
			wg += rec.Dur()
		}
	}
	want := float64(d*n) * 2 / 2 // half of each 2-unit backward per half
	if math.Abs(bi-want) > 1e-9 || math.Abs(wg-want) > 1e-9 {
		t.Errorf("BI time %v, WG time %v, want %v each", bi, wg, want)
	}
}

// TestEstimatorStageMismatchRejected guards the precondition.
func TestEstimatorStageMismatchRejected(t *testing.T) {
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 4})
	if _, err := sim.Simulate(s, cost.Uniform(5, 1, 2, 0.25), sim.Options{}); err == nil {
		t.Error("stage mismatch accepted")
	}
}

// TestPeakMemoryStandalone: the exported sim.PeakMemory agrees with Simulate's
// memory accounting.
func TestPeakMemoryStandalone(t *testing.T) {
	s := build(t, pipeline.SchemeInterleave, scheme.Config{Devices: 4, Micros: 8, Chunks: 2})
	e := cost.Uniform(s.NumStages(), 1, 2, 0.25)
	r := simulate(t, s, e, sim.Options{})
	peaks := sim.PeakMemory(s, e)
	for d := range peaks {
		if peaks[d] != r.PeakMem[d] {
			t.Errorf("dev%d: standalone %v vs simulate %v", d, peaks[d], r.PeakMem[d])
		}
	}
}
