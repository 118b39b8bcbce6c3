package graph

import (
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// TestPassesDoNotLeakIntoParent: under copy-on-write Clone, every mutating
// pass applied to a clone must leave the parent schedule byte-identical —
// each call site must route its edits through MutableList/SetList.
func TestPassesDoNotLeakIntoParent(t *testing.T) {
	e := cost.Uniform(4, 1, 2, 0.25)
	// onClone edits a clone of s, which must leave s as it was. The in-place
	// moves of pass 4 need a checkpointed incumbent, which the shared parent
	// is not, so their cases check their own.
	onClone := func(s *pipeline.Schedule, edit func(c *pipeline.Schedule)) {
		want := s.String()
		edit(s.Clone())
		if got := s.String(); got != want {
			t.Errorf("an in-place move on a clone reached its parent\nbefore:\n%s\nafter:\n%s", want, got)
		}
	}
	passes := map[string]func(*pipeline.Schedule){
		"ApplyCheckpoint":  ApplyCheckpoint,
		"OverlapRecompute": func(s *pipeline.Schedule) { ApplyCheckpoint(s); OverlapRecompute(s) },
		"RemoveRedundancy": func(s *pipeline.Schedule) { ApplyCheckpoint(s); RemoveRedundancy(s) },
		"preposeDevice": func(s *pipeline.Schedule) {
			ApplyCheckpoint(s)
			onClone(s, func(c *pipeline.Schedule) {
				for d := 0; d < c.NumDevices(); d++ {
					if p, ok := nextPrepose(c, d); ok {
						p.apply(c, d)
					}
				}
			})
		},
		"promoteBufferedSends": func(s *pipeline.Schedule) {
			// The first of two composite moves buffers device 0's send; the
			// second preposes its consumer on device 1, so the send is
			// promotable.
			ApplyCheckpoint(s)
			for range 2 {
				for d := 0; d < s.NumDevices(); d++ {
					if p, ok := nextPrepose(s, d); ok {
						p.apply(s, d)
					}
				}
			}
			onClone(s, func(c *pipeline.Schedule) {
				if len(promoteBufferedSends(c, nil)) == 0 {
					t.Error("no buffered send to promote")
				}
			})
		},
		"splitAll": func(s *pipeline.Schedule) { splitAll(s) },
		"sinkWeightGrads": func(s *pipeline.Schedule) {
			c := splitAll(s)
			for d := 0; d < c.NumDevices(); d++ {
				sinkWeightGrads(c, d)
			}
		},
		"Optimize": func(s *pipeline.Schedule) {
			if _, _, err := Optimize(s, Options{Estimator: e}); err != nil {
				t.Fatal(err)
			}
		},
		"SplitBackward": func(s *pipeline.Schedule) {
			ApplyCheckpoint(s)
			OverlapRecompute(s)
			if _, _, err := SplitBackward(s, Options{Estimator: e}); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, pass := range passes {
		t.Run(name, func(t *testing.T) {
			parent := build1f1b(t, 4, 8)
			want := parent.String()
			pass(parent.Clone())
			if got := parent.String(); got != want {
				t.Errorf("pass mutated the parent schedule through a shared list\nbefore:\n%s\nafter:\n%s", want, got)
			}
		})
	}
}

// TestOptimizeInputUnmodified re-pins Optimize's documented contract ("the
// input is not modified") now that the initial Clone is copy-on-write.
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
