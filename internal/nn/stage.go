package nn

import "mario/internal/tensor"

// Stage is one pipeline stage: a sequence of transformer blocks. It exposes
// the three operations the pipeline runtime schedules: a retaining forward
// (FW), a checkpointed forward that keeps nothing but its input (CFW — the
// recompute replays it with retention), and the backward (BW).
type Stage struct {
	Blocks []*Block
}

// NewStage builds a stage of n blocks of width d over sequences of length
// seqLen.
func NewStage(r *tensor.RNG, n, d, seqLen int) *Stage {
	s := &Stage{Blocks: make([]*Block, n)}
	for i := range s.Blocks {
		s.Blocks[i] = newBlock(r, d, seqLen)
	}
	return s
}

// StageCache is the retained state of one stage forward.
type StageCache struct {
	caches []Cache
}

// Bytes reports the live activation footprint of the cache.
func (c *StageCache) Bytes() int {
	n := 0
	for _, cc := range c.caches {
		n += cc.Bytes()
	}
	return n
}

// Forward runs the stage retaining all intermediate activations (plain FW).
func (s *Stage) Forward(x *tensor.Tensor) (*tensor.Tensor, *StageCache) {
	caches := make([]Cache, len(s.Blocks))
	for i, b := range s.Blocks {
		x, caches[i] = b.Forward(x)
	}
	return x, &StageCache{caches: caches}
}

// ForwardDropped runs the stage without retaining anything (CFW): the caller
// keeps only the stage input for the later recompute. The result is
// bit-identical to Forward's output.
func (s *Stage) ForwardDropped(x *tensor.Tensor) *tensor.Tensor {
	for _, b := range s.Blocks {
		x, _ = b.Forward(x)
	}
	return x
}

// BackwardInput runs only the input-gradient (B) half over the whole stage
// and returns the deferred weight-gradient (W) half. The work replays the
// per-block weight halves last block first, the order the input gradient
// reached them. A fused backward (BW) runs the work at once.
func (s *Stage) BackwardInput(c *StageCache, dy *tensor.Tensor) (*tensor.Tensor, WeightWork) {
	ws := make([]WeightWork, len(s.Blocks))
	for i := len(s.Blocks) - 1; i >= 0; i-- {
		dy, ws[i] = s.Blocks[i].BackwardInput(c.caches[i], dy)
	}
	w := func() {
		for i := len(ws) - 1; i >= 0; i-- {
			ws[i]()
		}
	}
	return dy, w
}

// Params returns all trainable parameters of the stage.
func (s *Stage) Params() []*Param {
	var ps []*Param
	for _, b := range s.Blocks {
		ps = append(ps, b.Params()...)
	}
	return ps
}
