package scheme

import (
	"testing"

	"mario/internal/pipeline"
)

// TestBuildCustomDownOnlyChimera: a custom structure where every micro-batch
// flows through Chimera's down pipeline — effectively a reversed 1F1B —
// builds and validates.
func TestBuildCustomDownOnlyChimera(t *testing.T) {
	const d, n = 4, 8
	parts := make([]int, n)
	for i := range parts {
		parts[i] = 1 // down direction only
	}
	s, err := BuildCustom(CustomConfig{
		Name:      "ReverseV",
		Placement: pipeline.NewBidirPlacement(d),
		Parts:     parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 of the down pipeline lives on device D-1, so device D-1 must
	// start the pipeline (first compute instruction at stage 0).
	var first pipeline.Instr
	for _, in := range s.Lists[d-1] {
		if in.Kind.IsCompute() {
			first = in
			break
		}
	}
	if first.Stage != 0 {
		t.Errorf("device %d first compute = %s, want a stage-0 forward", d-1, first)
	}
	if got := s.CountKind(-1, pipeline.Forward); got != n*d {
		t.Errorf("forward count = %d, want %d", got, n*d)
	}
}

// TestBuildCustomMixedDirections: an asymmetric 3:1 up/down split still
// yields a valid schedule (the structure-exploration use case).
func TestBuildCustomMixedDirections(t *testing.T) {
	const d, n = 4, 8
	parts := make([]int, n)
	for i := range parts {
		if i%4 == 3 {
			parts[i] = 1
		}
	}
	s, err := BuildCustom(CustomConfig{Placement: pipeline.NewBidirPlacement(d), Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheme != "Custom" {
		t.Errorf("default name = %q", s.Scheme)
	}
}

// TestBuildCustomInterleaved: the greedy scheduler also handles interleaved
// placements (chunked stages).
func TestBuildCustomInterleaved(t *testing.T) {
	const d, v, n = 4, 2, 8
	s, err := BuildCustom(CustomConfig{
		Name:      "GreedyW",
		Placement: pipeline.NewInterleavedPlacement(d, v),
		Parts:     make([]int, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumStages() != d*v {
		t.Errorf("stages = %d, want %d", s.NumStages(), d*v)
	}
}

func TestBuildCustomValidation(t *testing.T) {
	if _, err := BuildCustom(CustomConfig{}); err == nil {
		t.Error("nil placement accepted")
	}
	if _, err := BuildCustom(CustomConfig{Placement: pipeline.NewLinearPlacement(2)}); err == nil {
		t.Error("zero micros accepted")
	}
	if _, err := BuildCustom(CustomConfig{
		Placement: pipeline.NewLinearPlacement(2),
		Parts:     []int{5},
	}); err == nil {
		t.Error("out-of-range part accepted")
	}
}
