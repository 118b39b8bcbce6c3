package cost

import "fmt"

// Partition splits layers across stages as evenly as possible, assigning the
// remainder to the earliest stages (the even partitioning used by
// Megatron-LM, Chimera and Hanayo; see §7.1 of the paper for why Mario keeps
// even partitioning).
func Partition(layers, stages int) []int {
	if stages <= 0 || layers < stages {
		panic(fmt.Sprintf("cost: cannot partition %d layers into %d stages", layers, stages))
	}
	out := make([]int, stages)
	base, rem := layers/stages, layers%stages
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// ValidatePartition checks that part is a well-formed layer→stage split:
// exactly stages entries, every stage holding at least one layer, and the
// entries summing to layers.
func ValidatePartition(part []int, layers, stages int) error {
	if len(part) != stages {
		return fmt.Errorf("cost: partition has %d stages, want %d", len(part), stages)
	}
	sum := 0
	for s, n := range part {
		if n < 1 {
			return fmt.Errorf("cost: partition stage %d holds %d layers, want at least 1", s, n)
		}
		sum += n
	}
	if sum != layers {
		return fmt.Errorf("cost: partition covers %d layers, model has %d", sum, layers)
	}
	return nil
}

// BwSplitRatio is the fraction of Estimator.BwTime attributable to computing
// the input gradient (the "B" part of ZB-H1's B/W split); the remaining
// fraction computes weight gradients and can be deferred. The simulator, its
// reference and the tuner's bounds price the split-backward schemes (ZB-H1,
// DualPipe-D) and the split-backward graph pass with it.
const BwSplitRatio = 0.5

// Estimator provides per-instruction latency and memory estimates for a
// concrete (model, hardware, pipeline, micro-batch size, TP) configuration.
// It is the E of Equation 1. Estimators are produced either analytically
// (Analytic, first-principles FLOP counts) or by fitting profiled data
// (internal/profile), both yielding the same struct so the simulator is
// agnostic to the source.
type Estimator struct {
	// Stages is the number of global pipeline stages.
	Stages int
	// MicroBatch is the micro-batch size the estimates assume.
	MicroBatch int
	// TP is the tensor-parallel degree folded into the per-stage costs.
	TP int

	// FwTime and BwTime are per-stage compute latencies in seconds. A
	// recompute replays the forward, so it is priced at FwTime.
	FwTime, BwTime []float64
	// ActFull is the full activation footprint of one micro-batch per stage
	// in bytes (retained by Forward until Backward).
	ActFull []float64
	// ActStash is the checkpointed footprint per stage in bytes: only the
	// stage input survives a CkptForward.
	ActStash []float64
	// ActWork is the transient working set of a forward-like computation in
	// bytes (roughly one layer's activations); it exists only while the
	// instruction runs and bounds the peak of checkpointed forwards.
	ActWork []float64
	// WeightBytes is the static per-stage training state (weights,
	// gradients, optimizer states) in bytes.
	WeightBytes []float64
	// GradP2PBytes and ActP2PBytes are the transfer sizes between
	// neighbouring stages in bytes.
	ActP2PBytes, GradP2PBytes float64
	// LinkBandwidth and LinkLatency describe the p2p links.
	LinkBandwidth, LinkLatency float64
	// LaunchOverhead is the fixed per-instruction framework overhead in
	// seconds (the regression bias b of §5.2).
	LaunchOverhead float64
	// FrameworkMem is the static framework memory in bytes.
	FrameworkMem float64
	// OptTime is the optimizer-step latency per device in seconds.
	OptTime float64
	// WGradBytes is the per-stage stash a BackwardInput leaves behind for its
	// deferred BackwardWeight half: the linear-layer inputs and output
	// gradients the weight-gradient matmuls still need after the input
	// gradient released the full activations. When nil, the memory simulation
	// falls back to holding the full activations (and checkpoint stash) until
	// the weight-gradient half runs, which reproduces the fused-backward
	// accounting exactly.
	WGradBytes []float64
	// DeviceSpeed is the relative compute speed of each pipeline rank
	// (1 = nominal, 0.8 = runs compute 25% slower). nil means a homogeneous
	// cluster. Compute-bound work (forward, backward, recompute, optimizer,
	// all-reduce) on rank d is scaled by 1/DeviceSpeed[d]; p2p transfers are
	// link-bound and stay unscaled.
	DeviceSpeed []float64
}

// SlowOf returns the compute slowdown multiplier of pipeline rank d:
// 1/DeviceSpeed[d], or exactly 1 when the cluster is homogeneous, the rank is
// out of range, or the recorded speed is non-positive. Multiplying a duration
// by the homogeneous value 1 is bit-exact, so callers may apply it
// unconditionally.
func (e *Estimator) SlowOf(d int) float64 {
	if d < 0 || d >= len(e.DeviceSpeed) {
		return 1
	}
	if s := e.DeviceSpeed[d]; s > 0 {
		return 1 / s
	}
	return 1
}

// CommTime returns the latency of a p2p transfer of the given size.
func (e *Estimator) CommTime(bytes float64) float64 {
	return e.LinkLatency + bytes/e.LinkBandwidth
}

// AllReduceTime returns the gradient all-reduce latency for the given
// data-parallel degree on the device holding the given stages (ring
// all-reduce over fp16 gradients).
func (e *Estimator) AllReduceTime(dp int, stages []int) float64 {
	if dp <= 1 {
		return 0
	}
	var bytes float64
	for _, s := range stages {
		// fp16 gradients are 2 of the 16 training-state bytes per parameter.
		bytes += e.WeightBytes[s] * 2 / BytesPerParamTraining
	}
	return 2 * float64(dp-1) / float64(dp) * bytes / e.LinkBandwidth
}

// nvlinkBandwidth is the intra-node bandwidth, in bytes/s, that tensor-parallel
// collectives run at.
const nvlinkBandwidth = 150e9

// AnalyticConfig bundles the inputs of the analytic estimator.
type AnalyticConfig struct {
	Model      ModelConfig
	HW         Hardware
	Stages     int
	MicroBatch int
	// TP is the tensor (and sequence) parallel degree; 0 or 1 disables TP.
	TP int
	// Partition overrides the uniform layer→stage split: Partition[s] is the
	// number of transformer layers on stage s. nil keeps the even
	// Partition(Layers, Stages) split. When set it must have exactly Stages
	// entries, every entry at least 1, and sum to Model.Layers.
	Partition []int
}

// Analytic builds an estimator from first-principles FLOP and byte counts.
//
// Per transformer layer and token, the forward pass costs 2·params FLOPs
// (params ≈ 12h²) plus the attention-score terms 4·s·h; activations follow
// the Megatron accounting of Korthikanti et al.: 34·s·b·h + 5·a·s²·b bytes
// per layer in fp16. The first stage additionally holds the token embedding
// and the last stage the LM head (tied weights, so parameters are counted on
// both but the LM-head matmul cost only on the last stage).
func Analytic(cfg AnalyticConfig) (*Estimator, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stages <= 0 {
		return nil, fmt.Errorf("cost: stage count %d must be positive", cfg.Stages)
	}
	if cfg.MicroBatch <= 0 {
		return nil, fmt.Errorf("cost: micro-batch size %d must be positive", cfg.MicroBatch)
	}
	tp := cfg.TP
	if tp <= 0 {
		tp = 1
	}
	if cfg.Model.Layers < cfg.Stages {
		return nil, fmt.Errorf("cost: %d layers cannot fill %d stages", cfg.Model.Layers, cfg.Stages)
	}

	m, hw := cfg.Model, cfg.HW
	h := float64(m.Hidden)
	s := float64(m.SeqLen)
	b := float64(cfg.MicroBatch)
	a := float64(m.Heads)
	v := float64(m.Vocab)
	ftp := float64(tp)

	// Forward FLOPs of one transformer layer for one micro-batch.
	layerFwFLOPs := 2*m.ParamsPerLayer()*s*b + 4*s*s*h*b
	// Kernel utilisation grows with the micro-batch size (small batches
	// underfill the SMs); this saturating factor is what makes the paper's
	// lmbs configurations profitable (§6.1: "larger micro-batch size to
	// utilize available memory and improve computational efficiency").
	util := b / (b + 1)
	effFLOPS := hw.FLOPS * util
	// TP collectives per layer: two all-reduces in forward (attention + MLP
	// outputs), two in backward; each moves s·b·h fp16 elements.
	tpCommFw := 0.0
	if tp > 1 {
		tpCommFw = 2 * 2 * float64(tp-1) / ftp * s * b * h * BytesPerActElem / nvlinkBandwidth
	}
	// Embedding lookup is memory-bound and cheap; the LM-head projection is
	// a real matmul on the last stage.
	lmHeadFLOPs := 2 * h * v * s * b
	// Full activation bytes per layer (Korthikanti et al., fp16, no flash
	// attention), divided by the TP degree under sequence parallelism.
	layerActBytes := (34*s*b*h + 5*a*s*s*b) / ftp
	// The stage input stash kept by a checkpointed forward.
	stashBytes := s * b * h * BytesPerActElem / ftp

	layersPerStage := cfg.Partition
	if layersPerStage == nil {
		layersPerStage = Partition(m.Layers, cfg.Stages)
	} else if err := ValidatePartition(layersPerStage, m.Layers, cfg.Stages); err != nil {
		return nil, err
	}

	e := &Estimator{
		Stages:         cfg.Stages,
		MicroBatch:     cfg.MicroBatch,
		TP:             tp,
		FwTime:         make([]float64, cfg.Stages),
		BwTime:         make([]float64, cfg.Stages),
		ActFull:        make([]float64, cfg.Stages),
		ActStash:       make([]float64, cfg.Stages),
		ActWork:        make([]float64, cfg.Stages),
		WGradBytes:     make([]float64, cfg.Stages),
		WeightBytes:    make([]float64, cfg.Stages),
		ActP2PBytes:    s * b * h * BytesPerActElem / ftp,
		GradP2PBytes:   s * b * h * BytesPerActElem / ftp,
		LinkBandwidth:  hw.LinkBandwidth,
		LinkLatency:    hw.LinkLatency,
		LaunchOverhead: hw.LaunchOverhead,
		FrameworkMem:   hw.FrameworkMem,
	}
	for st, nl := range layersPerStage {
		fl := float64(nl)
		fw := (layerFwFLOPs*fl/ftp)/effFLOPS + tpCommFw*fl
		extraParams := 0.0
		if st == 0 {
			extraParams += m.EmbeddingParams()
		}
		if st == cfg.Stages-1 {
			extraParams += m.EmbeddingParams() // tied LM head replica
			fw += (lmHeadFLOPs / ftp) / effFLOPS
		}
		e.FwTime[st] = fw
		e.BwTime[st] = fw * hw.BackwardRatio
		e.ActFull[st] = layerActBytes * fl
		e.ActStash[st] = stashBytes
		e.ActWork[st] = layerActBytes
		// After the input gradient releases the full activations, the
		// deferred weight-gradient matmuls only need each linear layer's
		// input and output gradient — roughly a third of the Korthikanti
		// per-layer footprint (the attention scores, softmax outputs and
		// dropout masks are consumed by the input gradient).
		e.WGradBytes[st] = layerActBytes * fl / 3

		e.WeightBytes[st] = (m.ParamsPerLayer()*fl + extraParams) / ftp * BytesPerParamTraining
	}
	// Optimizer step: elementwise Adam over the device's parameters,
	// memory-bandwidth bound; approximate with a fixed cost proportional to
	// state size over HBM bandwidth (~1.5 TB/s).
	var maxW float64
	for _, w := range e.WeightBytes {
		if w > maxW {
			maxW = w
		}
	}
	e.OptTime = maxW / 1.5e12
	return e, nil
}
