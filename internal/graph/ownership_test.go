package graph

import (
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// TestPassesDoNotLeakIntoParent holds the ownership rule. A pass that
// rewrites every list (ApplyCheckpoint, splitAll, sinkWeightGrads, Optimize,
// SplitBackward) returns a new schedule and leaves its input as it was; a pass
// that edits in place, run on ApplyCheckpoint's output, never reaches
// ApplyCheckpoint's input.
func TestPassesDoNotLeakIntoParent(t *testing.T) {
	e := cost.Uniform(4, 1, 2, 0.25)
	// keeps runs f and fails when f changed s.
	keeps := func(t *testing.T, s *pipeline.Schedule, f func()) {
		t.Helper()
		want := s.String()
		f()
		if got := s.String(); got != want {
			t.Errorf("the pass modified its input\nbefore:\n%s\nafter:\n%s", want, got)
		}
	}
	// preposeAll makes, in place, the next prepose move of every device that
	// has one.
	preposeAll := func(s *pipeline.Schedule) {
		for d := 0; d < s.NumDevices(); d++ {
			if p, ok := nextPrepose(s, d); ok {
				p.apply(s, d)
			}
		}
	}
	passes := map[string]func(t *testing.T, s *pipeline.Schedule){
		"ApplyCheckpoint":  func(t *testing.T, s *pipeline.Schedule) { ApplyCheckpoint(s) },
		"OverlapRecompute": func(t *testing.T, s *pipeline.Schedule) { OverlapRecompute(ApplyCheckpoint(s)) },
		"RemoveRedundancy": func(t *testing.T, s *pipeline.Schedule) { RemoveRedundancy(ApplyCheckpoint(s)) },
		"preposeDevice":    func(t *testing.T, s *pipeline.Schedule) { preposeAll(ApplyCheckpoint(s)) },
		"promoteBufferedSends": func(t *testing.T, s *pipeline.Schedule) {
			// The first of two composite moves buffers device 0's send; the
			// second preposes its consumer on device 1, so the send is
			// promotable.
			c := ApplyCheckpoint(s)
			preposeAll(c)
			preposeAll(c)
			if len(promoteBufferedSends(c, nil)) == 0 {
				t.Error("no buffered send to promote")
			}
		},
		"splitAll": func(t *testing.T, s *pipeline.Schedule) { splitAll(s) },
		"sinkWeightGrads": func(t *testing.T, s *pipeline.Schedule) {
			c := splitAll(s)
			keeps(t, c, func() {
				for d := 0; d < c.NumDevices(); d++ {
					if _, ok := sinkWeightGrads(c, d); !ok {
						t.Errorf("device %d has no weight-gradient half to sink", d)
					}
				}
			})
		},
		"Optimize": func(t *testing.T, s *pipeline.Schedule) {
			if _, _, err := Optimize(s, Options{Estimator: e}); err != nil {
				t.Fatal(err)
			}
		},
		"SplitBackward": func(t *testing.T, s *pipeline.Schedule) {
			c := ApplyCheckpoint(s)
			OverlapRecompute(c)
			for _, in := range []*pipeline.Schedule{s, c} {
				keeps(t, in, func() {
					if _, _, err := SplitBackward(in, Options{Estimator: e}); err != nil {
						t.Fatal(err)
					}
				})
			}
		},
	}
	for name, pass := range passes {
		t.Run(name, func(t *testing.T) {
			parent := build1f1b(t, 4, 8)
			keeps(t, parent, func() { pass(t, parent) })
		})
	}
}

// TestOptimizeInputUnmodified pins Optimize's documented contract ("the input
// is not modified"): its rounds edit ApplyCheckpoint's output, not the input.
func TestOptimizeInputUnmodified(t *testing.T) {
	s := build1f1b(t, 4, 8)
	want := s.String()
	e := cost.Uniform(4, 1, 2, 0.25)
	if _, _, err := Optimize(s, Options{Estimator: e}); err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != want {
		t.Errorf("Optimize modified its input:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}

// TestEnginesOwnedByCaller: a bundle the caller passes gives the same schedule
// as one the run makes for itself, and keeps the run's counts for its owner:
// Report publishes the bundle's simulations and prepose rounds.
func TestEnginesOwnedByCaller(t *testing.T) {
	s := build1f1b(t, 4, 8)
	e := cost.Uniform(4, 1, 2, 0.25)
	opts := Options{Estimator: e, Sim: sim.Options{NoTimeline: true}}
	want, _, err := Optimize(s, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Engines = NewEngines()
	got, _, err := Optimize(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("caller-owned bundle changed the optimized schedule")
	}
	eng := opts.Engines
	if eng.Main.Sims == 0 {
		t.Error("the run simulated nothing on the bundle it was given")
	}
	m := telemetry.NewSearchMetrics(telemetry.NewRegistry())
	eng.Report(m)
	if sims, rounds := m.Sims.Value(), m.GraphRounds.Value(); sims != eng.Main.Sims || rounds != eng.rounds || rounds == 0 {
		t.Errorf("Report published sims=%d rounds=%d, want the bundle's %d sims and %d (> 0) rounds", sims, rounds, eng.Main.Sims, eng.rounds)
	}
}
