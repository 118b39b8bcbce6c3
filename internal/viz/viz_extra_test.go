package viz

import (
	"strings"
	"testing"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

// TestASCIIShowsSplitBackwardGlyphs: split backwards render as 'b' (input
// half) and 'w' (weight half).
func TestASCIIShowsSplitBackwardGlyphs(t *testing.T) {
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := cost.Uniform(4, 1, 2, 0.25)
	split, r, err := graph.SplitBackward(s, graph.Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	_ = split
	out := ASCII(r.Timeline, 0.5)
	if !strings.Contains(out, "b") || !strings.Contains(out, "w") {
		t.Errorf("split glyphs missing:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "dev") && strings.Contains(line, "B") {
			t.Errorf("whole-backward glyph should be gone: %s", line)
		}
	}
}

// TestASCIIDefaultQuantum: quantum ≤ 0 picks one automatically.
func TestASCIIDefaultQuantum(t *testing.T) {
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 2, Micros: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Simulate(s, cost.Uniform(2, 1, 2, 0.25), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := ASCII(r.Timeline, 0); !strings.Contains(out, "total") {
		t.Errorf("auto-quantum chart broken:\n%s", out)
	}
}

// TestSVGEscapesTitles: SVG titles include the instruction notation and the
// document stays balanced for checkpointed schedules.
func TestSVGChartForCheckpointed(t *testing.T) {
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := cost.Uniform(4, 1, 2, 0.25)
	_, r, err := graph.Optimize(s, graph.Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := SVG(&sb, r.Timeline); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "RC") || !strings.Contains(out, "CFW") {
		t.Errorf("SVG titles missing checkpoint instructions")
	}
	if strings.Count(out, "<rect") != strings.Count(out, "</rect>") {
		t.Error("unbalanced rects")
	}
}
