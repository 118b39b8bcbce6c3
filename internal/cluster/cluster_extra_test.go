package cluster

import (
	"math"
	"testing"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/scheme"
)

// TestHeteroSlowsPipeline: static per-device speed variation stretches the
// measured makespan relative to the homogeneous machine (the pipeline beats
// to the slowest drum) and remains deterministic per seed.
func TestHeteroSlowsPipeline(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 8, Micros: 32})
	e := cost.Uniform(8, 1, 2, 0.25)
	homo := mustRun(t, &Machine{Truth: e, Seed: 5}, s, 1)
	// Average over a few seeds: individual draws may make the bottleneck
	// stage faster, but the expected makespan grows with the max factor.
	slower := 0
	const seeds = 5
	for seed := uint64(0); seed < seeds; seed++ {
		het := mustRun(t, &Machine{Truth: e, Hetero: 0.2, Seed: seed}, s, 1)
		if het.Total > homo.Total {
			slower++
		}
	}
	if slower < seeds-1 {
		t.Errorf("heterogeneity slowed only %d/%d seeds", slower, seeds)
	}
	a := mustRun(t, &Machine{Truth: e, Hetero: 0.2, Seed: 9}, s, 1)
	b := mustRun(t, &Machine{Truth: e, Hetero: 0.2, Seed: 9}, s, 1)
	if a.Total != b.Total {
		t.Error("hetero machine not deterministic per seed")
	}
}

// TestClusterRunsSplitBackward: ZB-H1 schedules execute on the emulator and
// beat the whole-backward baseline, matching the simulator's verdict.
func TestClusterRunsSplitBackward(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 4})
	e := cost.Uniform(4, 1, 2, 0.25)
	split, predicted, err := graph.SplitBackward(s, graph.Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, machine(e), s, 1)
	got := mustRun(t, machine(e), split, 1)
	if got.Total >= base.Total {
		t.Errorf("split backward on cluster: %v not below baseline %v", got.Total, base.Total)
	}
	if math.Abs(got.Total-predicted.Total) > 1e-9 {
		t.Errorf("cluster %v and simulator %v disagree on the split schedule", got.Total, predicted.Total)
	}
}

// TestClusterRunsOptimizedCheckpointSchedule: the full Mario schedule (with
// preposed forwards and buffered sends) executes on real channels without
// mismatch or deadlock and matches the simulator exactly in the noiseless
// machine.
func TestClusterRunsOptimizedCheckpointSchedule(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	opt, predicted, err := graph.Optimize(s, graph.Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	got := mustRun(t, machine(e), opt, 1)
	if math.Abs(got.Total-predicted.Total) > 1e-9 {
		t.Errorf("cluster %v and simulator %v disagree on the optimized schedule", got.Total, predicted.Total)
	}
}
