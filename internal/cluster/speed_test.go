package cluster

import (
	"math"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
)

// TestSpeedFactorsSlowCompute: a declared 0.8× device stretches its own
// compute samples by exactly 1/0.8 and leaves the other devices untouched.
func TestSpeedFactorsSlowCompute(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	nominal := &Machine{Truth: e, Seed: 11}
	declared := &Machine{Truth: e, Seed: 11, SpeedFactors: []float64{1, 1, 0.8, 1}}
	if slow, base := mustRun(t, declared, s, 1), mustRun(t, nominal, s, 1); slow.Total <= base.Total {
		t.Errorf("0.8x device did not stretch the run: %v vs %v", slow.Total, base.Total)
	}
	base, _, err := nominal.Sample(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := declared.Sample(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	oh := e.LaunchOverhead
	for d := 0; d < 4; d++ {
		want := 1.0
		if d == 2 {
			want = 1 / 0.8
		}
		for k, durs := range base[d] {
			if !isCompute(k.Kind) {
				continue
			}
			got := slow[d][k]
			for i := range durs {
				ratio := (got[i] - oh) / (durs[i] - oh)
				if math.Abs(ratio-want) > 1e-9 {
					t.Fatalf("device %d %v sample %d: stretch %v, want %v", d, k, i, ratio, want)
				}
			}
		}
	}
}

func isCompute(k pipeline.Kind) bool {
	switch k {
	case pipeline.Forward, pipeline.CkptForward, pipeline.Backward, pipeline.Recompute,
		pipeline.BackwardInput, pipeline.BackwardWeight,
		pipeline.AllReduce, pipeline.OptimizerStep:
		return true
	}
	return false
}
