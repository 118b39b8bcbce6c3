package graph

import (
	"reflect"
	"runtime"
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
				if c, ok := preposeDevice(s, d); ok {
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

// TestEnginesSizedByOwner: the width of the per-device scan belongs to whoever
// made the bundle, so no run can inherit another's. A Workers: 0 run that
// follows a Workers: 4 run evaluates inline — on a bundle of its own and on
// one the caller passes alike — and a caller-owned bundle is left for its
// owner to report.
func TestEnginesSizedByOwner(t *testing.T) {
	s := build1f1b(t, 4, 8)
	e := cost.Uniform(4, 1, 2, 0.25)
	opts := Options{Estimator: e, Sim: sim.Options{NoTimeline: true}}

	opts.Workers = 4
	want, _, err := Optimize(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if eng, _ := opts.engines(); len(eng.scan) != 3 {
		t.Fatalf("Workers: 4 run got %d scan engines, want 3", len(eng.scan))
	}
	opts.Workers = 0
	if eng, _ := opts.engines(); len(eng.scan) != 0 {
		t.Fatalf("Workers: 0 run after a Workers: 4 run got %d scan engines, want none", len(eng.scan))
	}

	reg := telemetry.NewRegistry()
	opts.Metrics = telemetry.NewSearchMetrics(reg)
	opts.Engines = NewEngines(0)
	opts.Workers = 4 // the bundle's width wins
	got, _, err := Optimize(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("caller-owned bundle changed the optimized schedule")
	}
	eng := opts.Engines
	if len(eng.scan) != 0 || eng.Sims() == 0 || eng.Sims() != eng.Main.Sims {
		t.Errorf("inline bundle: %d scan engines, %d sims of which %d on Main", len(eng.scan), eng.Sims(), eng.Main.Sims)
	}
	if n := opts.Metrics.Sims.Value(); n != 0 {
		t.Errorf("run reported %d sims of a bundle it does not own", n)
	}
	// Every simulation classifies every device exactly once.
	if r := eng.Rebuilds(); r.Unchanged+r.Swap+r.Full != eng.Sims()*int64(s.NumDevices()) {
		t.Errorf("rebuild counters %+v do not add up to %d sims × %d devices", r, eng.Sims(), s.NumDevices())
	}
}

// TestOptimizeWorkerDeterminism: the parallel prepose sweep must return a
// byte-identical schedule and a bit-identical simulation result for every
// worker count. Run under -race this also proves the candidate fan-out and
// the copy-on-write share marks are data-race free.
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
			e := cost.Uniform(tc.stages, 1, 2, 0.25)
			opts := Options{Estimator: e, Sim: sim.Options{NoTimeline: true}}

			type out struct {
				sched string
				res   *sim.Result
			}
			var base *out
			for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				opts.Workers = w
				optSched, res, err := Optimize(s, opts)
				if err != nil {
					t.Fatalf("Workers=%d: %v", w, err)
				}
				cur := &out{sched: optSched.String(), res: res}
				if base == nil {
					base = cur
					continue
				}
				if cur.sched != base.sched {
					t.Errorf("Workers=%d: schedule differs from Workers=1", w)
				}
				if !reflect.DeepEqual(cur.res, base.res) {
					t.Errorf("Workers=%d: result differs from Workers=1 (%.17g vs %.17g)", w, cur.res.Total, base.res.Total)
				}
			}
		})
	}
}
