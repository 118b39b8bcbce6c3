package graph

import (
	"reflect"
	"sync"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// TestPassesDoNotLeakIntoParent: under copy-on-write Clone, every mutating
// pass applied to a clone must leave the parent schedule byte-identical —
// each call site must route its edits through MutableList/SetList.
func TestPassesDoNotLeakIntoParent(t *testing.T) {
	e := cost.Uniform(4, 1, 2, 0.25)
	passes := map[string]func(*pipeline.Schedule){
		"ApplyCheckpoint":  ApplyCheckpoint,
		"OverlapRecompute": func(s *pipeline.Schedule) { ApplyCheckpoint(s); OverlapRecompute(s) },
		"RemoveRedundancy": func(s *pipeline.Schedule) { ApplyCheckpoint(s); RemoveRedundancy(s) },
		"preposeDevice": func(s *pipeline.Schedule) {
			ApplyCheckpoint(s)
			for d := 0; d < s.NumDevices(); d++ {
				if p, ok := nextPrepose(s, d); ok {
					c := s.Clone()
					p.apply(c, d)
					// The candidate's own edits must not reach s either.
					cl := c.MutableList(d)
					if len(cl) > 0 {
						cl[0].Kind = pipeline.OptimizerStep
					}
				}
			}
		},
		"promoteBufferedSends": func(s *pipeline.Schedule) {
			ApplyCheckpoint(s)
			promoteBufferedSends(s)
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
// as one the run makes for itself, and is left for its owner to report — the
// run adds none of its simulations to the registry.
func TestEnginesOwnedByCaller(t *testing.T) {
	s := build1f1b(t, 4, 8)
	e := cost.Uniform(4, 1, 2, 0.25)
	opts := Options{Estimator: e, Sim: sim.Options{NoTimeline: true}}
	want, _, err := Optimize(s, opts)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	opts.Metrics = telemetry.NewSearchMetrics(reg)
	opts.Engines = NewEngines()
	got, _, err := Optimize(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("caller-owned bundle changed the optimized schedule")
	}
	eng := opts.Engines.Main
	if eng.Sims == 0 {
		t.Error("the run simulated nothing on the bundle it was given")
	}
	if n := opts.Metrics.Sims.Value(); n != 0 {
		t.Errorf("run reported %d sims of a bundle it does not own", n)
	}
}

// TestOptimizeWorkerDeterminism: goroutines that optimize one frozen base
// schedule at once — what a search's pool workers do with a memoized build —
// each return the schedule and the bit-identical result the sequential run
// returns. Run under -race this also proves that the base's resolved placement
// view (filled when it was built, never on first use) and its copy-on-write
// share marks are read-only once it is shared.
func TestOptimizeWorkerDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		scheme pipeline.Scheme
		cfg    scheme.Config
		stages int
	}{
		{"1f1b-8x16", pipeline.Scheme1F1B, scheme.Config{Devices: 8, Micros: 16}, 8},
		{"chimera-8x8", pipeline.SchemeChimera, scheme.Config{Devices: 8, Micros: 8}, 8},
		{"interleave-4x8", pipeline.SchemeInterleave, scheme.Config{Devices: 4, Micros: 8, Chunks: 2}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := scheme.Build(tc.scheme, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Freeze()
			e := cost.Uniform(tc.stages, 1, 2, 0.25)
			opts := Options{Estimator: e, Sim: sim.Options{NoTimeline: true}}
			base, baseRes, err := Optimize(s, opts)
			if err != nil {
				t.Fatal(err)
			}

			const workers = 4
			scheds := make([]*pipeline.Schedule, workers)
			results := make([]*sim.Result, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					scheds[w], results[w], errs[w] = Optimize(s, opts)
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if errs[w] != nil {
					t.Fatalf("worker %d: %v", w, errs[w])
				}
				if scheds[w].String() != base.String() {
					t.Errorf("worker %d: schedule differs from the sequential run", w)
				}
				if !reflect.DeepEqual(results[w], baseRes) {
					t.Errorf("worker %d: result differs from the sequential run (%.17g vs %.17g)", w, results[w].Total, baseRes.Total)
				}
			}
		})
	}
}
