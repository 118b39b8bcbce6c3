package scheme

import (
	"testing"

	"mario/internal/pipeline"
)

// fuzzScheme maps a fuzz byte to a scheme under test.
func fuzzScheme(sel uint8) pipeline.Scheme {
	schemes := []pipeline.Scheme{
		pipeline.SchemeGPipe,
		pipeline.Scheme1F1B,
		pipeline.SchemeChimera,
		pipeline.SchemeInterleave,
		pipeline.SchemeZBH1,
		pipeline.SchemeDualPipeD,
	}
	return schemes[int(sel)%len(schemes)]
}

// fuzzSeeds is the checked-in FuzzSchemeBuild corpus; TestShapeMatchesBuild
// replays its (devices, micros, chunks) triples against every scheme.
var fuzzSeeds = []struct{ sel, devices, micros, chunks uint8 }{
	{0, 4, 8, 2},
	{1, 4, 4, 2},
	{2, 6, 12, 1},
	{3, 4, 8, 3},
	{3, 1, 1, 1},
	{4, 4, 8, 0},
	{5, 4, 8, 0},
	{5, 2, 2, 0},
}

// fuzzConfig folds fuzz bytes into the configuration range under test.
func fuzzConfig(devices, micros, chunks uint8) Config {
	return Config{
		Devices: int(devices)%12 + 1,
		Micros:  int(micros)%24 + 1,
		Chunks:  int(chunks) % 5, // 0 exercises the Chunks default
	}
}

// FuzzSchemeBuild drives Build across the whole (scheme, devices, micros,
// chunks) input space. Constraint rejections are fine; any successfully
// built schedule must uphold the generator's invariants:
//
//   - it passes pipeline.Validate, which Build does not run itself,
//   - instruction identities are unique — no duplicate (kind, micro, part,
//     stage) on any device,
//   - compute work is conserved: exactly Micros forwards per global stage,
//     plus Micros fused backwards (fused-backward schemes) or Micros
//     BackwardInput/BackwardWeight pairs (split-backward schemes), and zero
//     checkpoint kinds,
//   - ShapeOf agrees with Build: it rejects exactly the configurations Build
//     rejects and predicts every device's instruction multiset,
//   - a list-scheduled scheme's schedule is the scan oracle's, byte for byte
//     (checkBuildMatchesScan).
func FuzzSchemeBuild(f *testing.F) {
	for _, c := range fuzzSeeds {
		f.Add(c.sel, c.devices, c.micros, c.chunks)
	}
	f.Fuzz(func(t *testing.T, sel, devices, micros, chunks uint8) {
		s := fuzzScheme(sel)
		cfg := fuzzConfig(devices, micros, chunks)
		d, n, v := cfg.Devices, cfg.Micros, cfg.Chunks
		sched, err := Build(s, cfg)
		checkShapeMatchesBuild(t, s, cfg, sched, err)
		if err != nil {
			return // constraint rejection is a valid outcome
		}
		if err := pipeline.Validate(sched); err != nil {
			t.Fatalf("%s d=%d n=%d v=%d: built schedule invalid: %v", s, d, n, v, err)
		}
		if listScheduled(s) {
			checkBuildMatchesScan(t, s, cfg, sched)
		}
		seen := make(map[pipeline.Key]bool, sched.TotalInstrs())
		for dev, list := range sched.Lists {
			for _, in := range list {
				k := in.Key()
				if in.Kind == pipeline.AllReduce || in.Kind == pipeline.OptimizerStep {
					continue // per-device collectives share (micro, stage)
				}
				if seen[k] {
					t.Fatalf("%s d=%d n=%d v=%d: duplicate instruction %v on device %d", s, d, n, v, in, dev)
				}
				seen[k] = true
			}
		}
		stages := sched.NumStages()
		if fw := sched.CountKind(-1, pipeline.Forward); fw != n*stages {
			t.Fatalf("%s d=%d n=%d v=%d: %d forwards, want micros×stages = %d", s, d, n, v, fw, n*stages)
		}
		bw := sched.CountKind(-1, pipeline.Backward)
		bi := sched.CountKind(-1, pipeline.BackwardInput)
		wg := sched.CountKind(-1, pipeline.BackwardWeight)
		if s.SplitsBackward() {
			if bw != 0 || bi != n*stages || wg != n*stages {
				t.Fatalf("%s d=%d n=%d v=%d: BW=%d BI=%d WG=%d, want 0 fused and micros×stages = %d split pairs",
					s, d, n, v, bw, bi, wg, n*stages)
			}
		} else {
			if bw != n*stages || bi != 0 || wg != 0 {
				t.Fatalf("%s d=%d n=%d v=%d: BW=%d BI=%d WG=%d, want micros×stages = %d fused and no split halves",
					s, d, n, v, bw, bi, wg, n*stages)
			}
		}
		for _, k := range []pipeline.Kind{pipeline.CkptForward, pipeline.Recompute} {
			if c := sched.CountKind(-1, k); c != 0 {
				t.Fatalf("%s d=%d n=%d v=%d: freshly built schedule contains %d %v", s, d, n, v, c, k)
			}
		}
	})
}
