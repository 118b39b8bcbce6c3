package graph

import (
	"fmt"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

// TestRegistryValidates is the proof that scheme.Build's generators are
// correct, which Build does not check itself: it walks every registered
// scheme over devices 1–8 × micros 1–16 (and chunks 1–3 for Interleave) and
// requires pipeline.Validate of each build that succeeds, and of what
// ApplyCheckpoint, Optimize and SplitBackward make of it. A shape the
// generator's own check refuses is skipped; FuzzSchemeBuild holds those
// refusals to ShapeOf's.
func TestRegistryValidates(t *testing.T) {
	for _, s := range scheme.Schemes() {
		chunks := []int{0}
		if s == pipeline.SchemeInterleave {
			chunks = []int{1, 2, 3}
		}
		t.Run(string(s), func(t *testing.T) {
			built := 0
			for d := 1; d <= 8; d++ {
				for n := 1; n <= 16; n++ {
					for _, v := range chunks {
						cfg := scheme.Config{Devices: d, Micros: n, Chunks: v}
						sched, err := scheme.Build(s, cfg)
						if err != nil {
							continue
						}
						built++
						if err := registryPassesValidate(sched); err != nil {
							t.Errorf("%s %+v: %v", s, cfg, err)
						}
					}
				}
			}
			if built == 0 {
				t.Errorf("%s: no shape built", s)
			}
		})
	}
}

// registryPassesValidate validates a build and the output of each graph pass
// on it.
func registryPassesValidate(sched *pipeline.Schedule) error {
	if err := pipeline.Validate(sched); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	ckpt := ApplyCheckpoint(sched)
	if err := pipeline.Validate(ckpt); err != nil {
		return fmt.Errorf("ApplyCheckpoint: %w", err)
	}
	opts := Options{Estimator: cost.Uniform(sched.NumStages(), 1, 2, 0.25), Sim: sim.Options{NoTimeline: true}}
	for _, pass := range []struct {
		name string
		run  func(*pipeline.Schedule, Options) (*pipeline.Schedule, *sim.Result, error)
	}{{"Optimize", Optimize}, {"SplitBackward", SplitBackward}} {
		out, _, err := pass.run(sched, opts)
		if err == nil {
			err = pipeline.Validate(out)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", pass.name, err)
		}
	}
	return nil
}
