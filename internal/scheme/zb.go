package scheme

import (
	"fmt"

	"mario/internal/pipeline"
)

// layoutDualPipeD is the bidirectional split-backward "D"-shape layout in the
// style of DeepSeek's DualPipe: micro-batches are cut in half, the first half
// flows up the pipeline (part 0, entering at device 0) while the second half
// flows down (part 1, entering at device D-1); the split-backward list
// scheduler lets deferred weight-gradient units fill the gaps where the two
// streams interleave. Each device holds two stages' weights (one per
// direction), like Chimera; unlike Chimera's alternating waves the two
// streams are injected simultaneously from both ends.
func layoutDualPipeD(cfg Config) (pipeline.Placement, []int) {
	parts := make([]int, cfg.Micros)
	for m := cfg.Micros / 2; m < cfg.Micros; m++ {
		parts[m] = 1
	}
	return pipeline.NewBidirPlacement(cfg.Devices), parts
}

// checkDualPipeD rejects configurations the bidirectional placement cannot
// express: the device count must be even (each device pairs a stage from
// each direction) and the micro-batch count must be even so the two streams
// carry equal halves.
func checkDualPipeD(cfg Config) error {
	if cfg.Devices%2 != 0 {
		return fmt.Errorf("scheme: DualPipe-D requires an even device count, got %d", cfg.Devices)
	}
	if cfg.Micros%2 != 0 {
		return fmt.Errorf("scheme: DualPipe-D requires an even micro-batch count, got %d", cfg.Micros)
	}
	return nil
}
