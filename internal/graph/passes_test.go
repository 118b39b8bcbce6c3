package graph

import (
	"math"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

func build1f1b(t *testing.T, d, n int) *pipeline.Schedule {
	t.Helper()
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

func mustSim(t *testing.T, s *pipeline.Schedule, e *cost.Estimator) *sim.Result {
	t.Helper()
	r, err := sim.Simulate(s, e, sim.Options{})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return r
}

// TestFigure2Steps reproduces the running example of §3.1 (Figure 2):
// a 4-stage 1F1B pipeline with F = t, B = 2t, free communication.
//
//	baseline (no checkpointing)                 21t
//	step 1: naive checkpointing (pass 1)        28t
//	step 2: + overlap-recompute (pass 2)        25t
//	step 3: + remove-redundancy (pass 3)        23t
//	step 4: + prepose-forward (pass 4)          22t
func TestFigure2Steps(t *testing.T) {
	const d, n = 4, 4
	e := cost.Uniform(d, 1, 2, 0.25)
	base := build1f1b(t, d, n)
	if r := mustSim(t, base, e); math.Abs(r.Total-21) > 1e-9 {
		t.Fatalf("baseline = %vt, want 21t", r.Total)
	}

	step1 := ApplyCheckpoint(base)
	if err := pipeline.Validate(step1); err != nil {
		t.Fatalf("step1 invalid: %v", err)
	}
	r1 := mustSim(t, step1, e)

	step2 := cloneSchedule(step1)
	OverlapRecompute(step2)
	if err := pipeline.Validate(step2); err != nil {
		t.Fatalf("step2 invalid: %v", err)
	}
	r2 := mustSim(t, step2, e)

	step3 := cloneSchedule(step2)
	RemoveRedundancy(step3)
	if err := pipeline.Validate(step3); err != nil {
		t.Fatalf("step3 invalid: %v", err)
	}
	r3 := mustSim(t, step3, e)

	opt, r4, err := Optimize(base, Options{Estimator: e})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := pipeline.Validate(opt); err != nil {
		t.Fatalf("step4 invalid: %v", err)
	}

	t.Logf("baseline=21 step1=%v step2=%v step3=%v step4=%v", r1.Total, r2.Total, r3.Total, r4.Total)

	if math.Abs(r1.Total-28) > 1e-9 {
		t.Errorf("step1 (apply-checkpoint) = %vt, want 28t", r1.Total)
	}
	if math.Abs(r2.Total-25) > 1e-9 {
		t.Errorf("step2 (overlap-recompute) = %vt, want 25t", r2.Total)
	}
	if math.Abs(r3.Total-23) > 1e-9 {
		t.Errorf("step3 (remove-redundancy) = %vt, want 23t", r3.Total)
	}
	if math.Abs(r4.Total-22) > 1e-9 {
		t.Errorf("step4 (prepose-forward) = %vt, want 22t", r4.Total)
	}
}

// TestCheckpointBalancesMemory: after the passes, peak activation memory is
// ~Mθ on every device (Table 1's last column) instead of growing linearly
// with the device index.
func TestCheckpointBalancesMemory(t *testing.T) {
	const d, n = 8, 16
	e := cost.Uniform(d, 1, 2, 0.125)
	base := build1f1b(t, d, n)
	opt, res, err := Optimize(base, Options{Estimator: e})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := pipeline.Validate(opt); err != nil {
		t.Fatalf("optimized schedule invalid: %v", err)
	}
	for dev, p := range res.PeakMem {
		// One full activation replica plus on-the-fly stashes; far below
		// the baseline's D replicas on device 0.
		if p > 1.0+float64(n)*0.125+1e-9 {
			t.Errorf("device %d peak %v exceeds Mθ + N stashes", dev, p)
		}
	}
	baseRes := mustSim(t, base, e)
	if res.PeakMem[0] >= baseRes.PeakMem[0]/2 {
		t.Errorf("optimized first-device peak %v not well below baseline %v", res.PeakMem[0], baseRes.PeakMem[0])
	}
}

// TestApplyCheckpointStructure: every FW becomes CFW and gains exactly one
// RC before its BW.
func TestApplyCheckpointStructure(t *testing.T) {
	s := build1f1b(t, 4, 8)
	s = ApplyCheckpoint(s)
	if got := s.CountKind(-1, pipeline.Forward); got != 0 {
		t.Errorf("plain forwards remain: %d", got)
	}
	if got, want := s.CountKind(-1, pipeline.CkptForward), 4*8; got != want {
		t.Errorf("CFW count = %d, want %d", got, want)
	}
	if got, want := s.CountKind(-1, pipeline.Recompute), 4*8; got != want {
		t.Errorf("RC count = %d, want %d", got, want)
	}
	if !s.Checkpointed {
		t.Error("Checkpointed flag not set")
	}
}

// TestRemoveRedundancyLastStage: on the last 1F1B device FW and BW are
// adjacent, so checkpointing there must be fully reverted.
func TestRemoveRedundancyLastStage(t *testing.T) {
	const d, n = 4, 8
	s := build1f1b(t, d, n)
	s = ApplyCheckpoint(s)
	OverlapRecompute(s)
	RemoveRedundancy(s)
	if err := pipeline.Validate(s); err != nil {
		t.Fatalf("invalid after passes: %v", err)
	}
	if got := s.CountKind(d-1, pipeline.Recompute); got != 0 {
		t.Errorf("last device still has %d recomputes", got)
	}
	if got, want := s.CountKind(d-1, pipeline.Forward), n; got != want {
		t.Errorf("last device plain forwards = %d, want %d", got, want)
	}
}

// TestOverlapRecomputeOrder: after pass 2, no Recompute directly follows a
// RecvGrad on any device.
func TestOverlapRecomputeOrder(t *testing.T) {
	s := build1f1b(t, 4, 8)
	s = ApplyCheckpoint(s)
	OverlapRecompute(s)
	for dev, list := range s.Lists {
		for i := 1; i < len(list); i++ {
			if list[i].Kind == pipeline.Recompute && list[i-1].Kind == pipeline.RecvGrad {
				t.Errorf("dev%d: %s still follows %s", dev, list[i], list[i-1])
			}
		}
	}
	if err := pipeline.Validate(s); err != nil {
		t.Fatalf("invalid after pass 2: %v", err)
	}
}

// TestOptimizeAllSchemes: the full pass pipeline produces valid schedules
// and never increases simulated cost versus naive checkpointing, for every
// supported scheme.
func TestOptimizeAllSchemes(t *testing.T) {
	for _, tc := range []struct {
		sch pipeline.Scheme
		cfg scheme.Config
	}{
		{pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeGPipe, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeInterleave, scheme.Config{Devices: 4, Micros: 8, Chunks: 2}},
	} {
		s, err := scheme.Build(tc.sch, tc.cfg)
		if err != nil {
			t.Fatalf("Build(%s): %v", tc.sch, err)
		}
		e := cost.Uniform(s.NumStages(), 1, 2, 0.25)
		naive := ApplyCheckpoint(s)
		rn := mustSim(t, naive, e)
		opt, ro, err := Optimize(s, Options{Estimator: e})
		if err != nil {
			t.Fatalf("Optimize(%s): %v", tc.sch, err)
		}
		if err := pipeline.Validate(opt); err != nil {
			t.Errorf("%s: optimized schedule invalid: %v", tc.sch, err)
		}
		if ro.Total > rn.Total+1e-9 {
			t.Errorf("%s: optimized %v slower than naive checkpointing %v", tc.sch, ro.Total, rn.Total)
		}
	}
}
