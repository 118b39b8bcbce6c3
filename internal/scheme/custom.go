package scheme

import (
	"fmt"

	"mario/internal/pipeline"
)

// CustomConfig describes a user-defined pipeline structure to be scheduled
// by the greedy list scheduler — the paper's extension hook for exploring
// new pipeline shapes beyond V/X/W ("Mario supports more pipelines … through
// the virtual pipeline abstraction and heuristics, which is applicable to
// explore new pipeline structures", §5.2).
type CustomConfig struct {
	// Name labels the resulting schedule's Scheme field.
	Name pipeline.Scheme
	// Placement maps (part, stage) to devices; any pipeline.Placement
	// implementation works, including user-defined ones.
	Placement pipeline.Placement
	// Parts assigns each micro-batch (by index) to a partition id; its
	// length is the micro-batch count N. For interleaved placements the
	// per-stage partition is derived from the placement and the entries
	// here are ignored.
	Parts []int
	// FwTime and BwTime weight the greedy scheduler's ordering decisions;
	// zero values default to the canonical 1 and 2.
	FwTime, BwTime float64
}

// BuildCustom constructs a validated schedule for a custom pipeline
// structure: compute order is decided by the greedy earliest-ready scheduler
// under the virtual-pipeline dependencies and 1F1B injection windows, then
// communication instructions are inserted and the result validated.
func BuildCustom(cfg CustomConfig) (*pipeline.Schedule, error) {
	if cfg.Placement == nil {
		return nil, fmt.Errorf("scheme: custom config needs a placement")
	}
	if len(cfg.Parts) == 0 {
		return nil, fmt.Errorf("scheme: custom config needs at least one micro-batch")
	}
	name := cfg.Name
	if name == "" {
		name = "Custom"
	}
	micros := make([]microAssign, len(cfg.Parts))
	for m, p := range cfg.Parts {
		if p < 0 || p >= cfg.Placement.NumParts() {
			return nil, fmt.Errorf("scheme: micro %d assigned to part %d, placement has %d parts", m, p, cfg.Placement.NumParts())
		}
		micros[m] = microAssign{micro: m, part: p}
	}
	r := pipeline.Resolve(cfg.Placement, len(cfg.Parts))
	s := pipeline.NewSchedule(name, r, greedyGraph(r, micros, unitTimes{fw: cfg.FwTime, bw: cfg.BwTime}, false).schedule())
	pipeline.InsertComm(s)
	if err := pipeline.Validate(s); err != nil {
		return nil, fmt.Errorf("scheme: custom schedule invalid: %w", err)
	}
	return s, nil
}
