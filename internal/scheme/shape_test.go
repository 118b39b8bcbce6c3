package scheme

import (
	"testing"

	"mario/internal/pipeline"
)

// kindStage is one cell of a device's instruction multiset.
type kindStage struct {
	kind  pipeline.Kind
	stage int
}

// checkShapeMatchesBuild holds ShapeOf against Build, the reference: both must
// accept or both reject the configuration, and on success the per-device
// kind×stage multiset derived from the shape's groups must equal the one
// counted from the built lists.
func checkShapeMatchesBuild(t *testing.T, s pipeline.Scheme, cfg Config, sched *pipeline.Schedule, buildErr error) {
	t.Helper()
	sh, err := ShapeOf(s, cfg)
	if (err == nil) != (buildErr == nil) {
		t.Fatalf("%s %+v: ShapeOf error %v, Build error %v", s, cfg, err, buildErr)
	}
	if err != nil {
		return
	}
	if sh.Micros != sched.Micros || sh.Placement != sched.Placement || sh.Scheme != sched.Scheme {
		t.Fatalf("%s %+v: shape header (%s, %v, %d) differs from schedule (%s, %v, %d)", s, cfg,
			sh.Scheme, sh.Placement, sh.Micros, sched.Scheme, sched.Placement, sched.Micros)
	}
	for dev, list := range sched.Lists {
		built := map[kindStage]int{}
		for _, in := range list {
			st := in.Stage
			if in.Micro == pipeline.NoMicro {
				st = 0 // the cool-down collectives carry no stage
			}
			built[kindStage{in.Kind, st}]++
		}
		want := map[kindStage]int{
			{pipeline.AllReduce, 0}:     1,
			{pipeline.OptimizerStep, 0}: 1,
		}
		for _, g := range sh.AppendGroups(nil, dev) {
			want[kindStage{pipeline.Forward, g.Stage}] += g.Micros
			if s.SplitsBackward() {
				want[kindStage{pipeline.BackwardInput, g.Stage}] += g.Micros
				want[kindStage{pipeline.BackwardWeight, g.Stage}] += g.Micros
			} else {
				want[kindStage{pipeline.Backward, g.Stage}] += g.Micros
			}
			if g.PrevCross {
				want[kindStage{pipeline.RecvAct, g.Stage}] += g.Micros
				want[kindStage{pipeline.SendGrad, g.Stage}] += g.Micros
			}
			if g.NextCross {
				want[kindStage{pipeline.SendAct, g.Stage}] += g.Micros
				want[kindStage{pipeline.RecvGrad, g.Stage}] += g.Micros
			}
		}
		if len(built) != len(want) {
			t.Fatalf("%s %+v dev %d: built multiset %v, shape predicts %v", s, cfg, dev, built, want)
		}
		for k, n := range want {
			if built[k] != n {
				t.Fatalf("%s %+v dev %d: %d × %v@%d built, shape predicts %d", s, cfg, dev, built[k], k.kind, k.stage, n)
			}
		}
	}
}

// TestShapeMatchesBuild replays the FuzzSchemeBuild corpus against every
// registered scheme.
func TestShapeMatchesBuild(t *testing.T) {
	for _, s := range Schemes() {
		for _, c := range fuzzSeeds {
			cfg := fuzzConfig(c.devices, c.micros, c.chunks)
			sched, err := Build(s, cfg)
			checkShapeMatchesBuild(t, s, cfg, sched, err)
		}
	}
	if _, err := ShapeOf("no-such-scheme", Config{Devices: 2, Micros: 2}); err == nil {
		t.Fatal("ShapeOf accepted an unregistered scheme")
	}
}
