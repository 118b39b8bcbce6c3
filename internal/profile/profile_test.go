package profile

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

func newProfiler() *Profiler {
	return &Profiler{
		Model:   cost.LLaMA2_3B,
		HW:      cost.A100_40G,
		Spec:    DefaultMachine,
		Devices: 4,
		Iters:   10,
	}
}

// TestProfiledEstimatorTracksTruth: the profiled per-stage forward/backward
// times land within ~15% of the analytic ground truth on middle stages (the
// jitter is ±4% and the extra overhead is visible to the fit's bias).
func TestProfiledEstimatorTracksTruth(t *testing.T) {
	p := newProfiler()
	const stages, mbs = 8, 2
	got, err := p.EstimatorFor(stages, mbs, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := cost.Analytic(cost.AnalyticConfig{Model: p.Model, HW: p.HW, Stages: stages, MicroBatch: mbs})
	if err != nil {
		t.Fatal(err)
	}
	for st := 1; st < stages-1; st++ {
		if rel := math.Abs(got.FwTime[st]-truth.FwTime[st]) / truth.FwTime[st]; rel > 0.15 {
			t.Errorf("stage %d: profiled fw %v vs truth %v (rel %v)", st, got.FwTime[st], truth.FwTime[st], rel)
		}
		if rel := math.Abs(got.BwTime[st]-truth.BwTime[st]) / truth.BwTime[st]; rel > 0.15 {
			t.Errorf("stage %d: profiled bw %v vs truth %v (rel %v)", st, got.BwTime[st], truth.BwTime[st], rel)
		}
		if rel := math.Abs(got.ActFull[st]-truth.ActFull[st]) / truth.ActFull[st]; rel > 0.15 {
			t.Errorf("stage %d: profiled act %v vs truth %v (rel %v)", st, got.ActFull[st], truth.ActFull[st], rel)
		}
	}
	// The learned bias must reflect the hidden extra overhead.
	if got.LaunchOverhead < truth.LaunchOverhead {
		t.Errorf("profiled overhead %v below the known launch overhead %v", got.LaunchOverhead, truth.LaunchOverhead)
	}
}

// TestEstimatorEndToEndAccuracy is the heart of Fig. 10: simulate with the
// profiled estimator, measure on the emulated cluster, and require a small
// relative error on iteration time — the paper reports 9.4% MAPE on
// throughput.
func TestEstimatorEndToEndAccuracy(t *testing.T) {
	p := newProfiler()
	const d, mbs = 4, 2
	est, err := p.EstimatorFor(d, mbs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: 16})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := sim.Simulate(sched, est, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := p.NewMachine(p.Model, d, mbs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mach.Run(sched, 3)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(pred.Total-rep.IterTime) / rep.IterTime
	if rel > 0.15 {
		t.Errorf("simulated %v vs measured %v: relative error %v > 15%%", pred.Total, rep.IterTime, rel)
	}
}

// TestProfilerCache: the second request with identical (mbs, tp) does not
// re-probe (observable via pointer identity of the cached fit through
// identical outputs) and different keys produce different estimators.
func TestProfilerCache(t *testing.T) {
	p := newProfiler()
	a, err := p.EstimatorFor(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.EstimatorFor(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.FwTime[1] != b.FwTime[1] {
		t.Error("cache miss changed results for identical key")
	}
	c, err := p.EstimatorFor(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.FwTime[1] <= a.FwTime[1] {
		t.Error("larger micro-batch should be slower per stage")
	}
}

// TestEstimatorForRejectsTooManyStages guards the layers-per-stage bound.
func TestEstimatorForRejectsTooManyStages(t *testing.T) {
	p := newProfiler()
	if _, err := p.EstimatorFor(p.Model.Layers+1, 1, 1); err == nil {
		t.Error("stage count above layer count accepted")
	}
}

// TestEmbeddingStagesSlower: the profiled estimator reflects the LM head on
// the last stage.
func TestEmbeddingStagesSlower(t *testing.T) {
	p := newProfiler()
	e, err := p.EstimatorFor(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.FwTime[7] <= e.FwTime[3] {
		t.Errorf("last stage fw %v not above middle stage %v", e.FwTime[7], e.FwTime[3])
	}
	if e.WeightBytes[0] <= e.WeightBytes[3] {
		t.Errorf("first stage weights %v not above middle stage %v", e.WeightBytes[0], e.WeightBytes[3])
	}
}

// TestFrameworkMemRecovered: the regression intercept recovers the ~2 GB
// framework footprint within a factor of two.
func TestFrameworkMemRecovered(t *testing.T) {
	p := newProfiler()
	e, err := p.EstimatorFor(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	truthFw := cost.A100_40G.FrameworkMem
	if e.FrameworkMem < truthFw/2 || e.FrameworkMem > truthFw*2 {
		t.Errorf("recovered framework memory %v not within 2x of %v", e.FrameworkMem, truthFw)
	}
}

// TestFitGolden pins the fit's bits: the SHA-256 of the JSON of an even-split
// estimator and of a partitioned one on LLaMA2-3B and DefaultMachine. Any
// change to the probe's draws, their order or the regressions moves them.
func TestFitGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		est  func(p *Profiler) (*cost.Estimator, error)
		want string
	}{
		{"EstimatorFor(8,2,1)", func(p *Profiler) (*cost.Estimator, error) { return p.EstimatorFor(8, 2, 1) },
			"3f497061befca992df805311943190eae14d6bfcfb60ba49f98d64181e6d7787"},
		{"EstimatorForPartition([12 20 20 12],1,2)", func(p *Profiler) (*cost.Estimator, error) {
			return p.EstimatorForPartition([]int{12, 20, 20, 12}, 1, 2)
		}, "53ca257240a4b6f551e2984c22e10b11b1421035cdaf405017c1902714f0664a"},
	} {
		e, err := tc.est(newProfiler())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want {
			t.Errorf("%s: SHA-256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestProbeSchedulesRun runs the probe's 1F1B schedules on the emulated
// cluster once. The probe itself only samples each device's list, which
// proves no liveness; this run does.
func TestProbeSchedulesRun(t *testing.T) {
	p := newProfiler()
	for _, d := range []int{2, 4} {
		sched, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: 2 * d})
		if err != nil {
			t.Fatal(err)
		}
		mach, err := p.NewMachine(p.Model.WithLayers(d), d, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run(sched, 1); err != nil {
			t.Errorf("probe schedule on %d devices: %v", d, err)
		}
	}
}
