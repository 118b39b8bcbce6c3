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
// counted from the built lists, and each group's in-flight depth the walk of
// its device's list (checkDepth).
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
			built[kindStage{in.Kind, int(st)}]++
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
	checkDepth(t, s, cfg, sh, sched)
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

// walkDepths is the oracle of Group.InFlight: on one device's built list, the
// forwards of each (part, stage) cell issued before the cell's first backward
// anchor.
func walkDepths(list []pipeline.Instr) map[[2]int]int {
	depth := map[[2]int]int{}
	anchored := map[[2]int]bool{}
	for _, in := range list {
		c := [2]int{int(in.Part), int(in.Stage)}
		switch in.Kind {
		case pipeline.Forward:
			if !anchored[c] {
				depth[c]++
			}
		case pipeline.Backward, pipeline.BackwardInput:
			anchored[c] = true
		}
	}
	return depth
}

// checkDepth holds every group's closed-form in-flight depth to the walk of
// its device's built list. DualPipe-D, which has none, must report 0; there
// no cell may walk deeper than its injection window min(N_p, S−s), and per
// stage the deepest window must equal the deepest walk — the depth the
// tuner's co-opt memory cap reads off the shape.
func checkDepth(t *testing.T, s pipeline.Scheme, cfg Config, sh Shape, sched *pipeline.Schedule) {
	t.Helper()
	S := sh.Placement.NumStages()
	window := make([]int, S)
	walk := make([]int, S)
	for dev, list := range sched.Lists {
		walked := walkDepths(list)
		for _, g := range sh.AppendGroups(nil, dev) {
			got := walked[[2]int{g.Part, g.Stage}]
			want := got
			if s == pipeline.SchemeDualPipeD {
				want = 0
				w := min(g.Micros, S-g.Stage)
				if got > w {
					t.Fatalf("%s %+v dev %d cell (%d, %d): the built walk reads %d, above the window %d",
						s, cfg, dev, g.Part, g.Stage, got, w)
				}
				window[g.Stage] = max(window[g.Stage], w)
				walk[g.Stage] = max(walk[g.Stage], got)
			}
			if g.InFlight != want {
				t.Fatalf("%s %+v dev %d cell (%d, %d): depth %d, the built walk reads %d",
					s, cfg, dev, g.Part, g.Stage, g.InFlight, want)
			}
		}
	}
	for st := range window {
		if window[st] != walk[st] {
			t.Fatalf("%s %+v stage %d: deepest window %d, deepest walk %d", s, cfg, st, window[st], walk[st])
		}
	}
}

// TestShapeDepthMatchesBuild holds the closed-form in-flight depth of every
// registry shape with D ≤ 16 and N ≤ 4D — Interleave at 1 to 4 chunks — to
// the walk of its built schedule.
func TestShapeDepthMatchesBuild(t *testing.T) {
	for _, s := range Schemes() {
		chunks := []int{0}
		if s == pipeline.SchemeInterleave {
			chunks = []int{1, 2, 3, 4}
		}
		for d := 1; d <= 16; d++ {
			for n := 1; n <= 4*d; n++ {
				for _, v := range chunks {
					cfg := Config{Devices: d, Micros: n, Chunks: v}
					sched, err := Build(s, cfg)
					if err != nil {
						continue
					}
					sh, err := ShapeOf(s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkDepth(t, s, cfg, sh, sched)
				}
			}
		}
	}
}
