// Package cost provides model and hardware descriptions plus analytic
// estimators for per-instruction execution time and memory footprint.
//
// The paper obtains these numbers from lightweight profiling on real GPUs
// (§5.2 "Lightweight Profiling"); this reproduction has no GPUs, so the
// ground-truth latencies are generated from first-principles transformer
// FLOP and byte counts (the standard Megatron accounting) and the
// profiling/regression pipeline (internal/profile) fits the paper's
// y = a·n + b estimators against an emulator driven by these costs.
package cost

import (
	"fmt"
	"math"
)

// ModelConfig describes a transformer language model (Table 4 of the paper).
type ModelConfig struct {
	Name   string
	Hidden int // hidden size h
	Layers int // number of transformer layers
	Heads  int // attention heads a
	SeqLen int // sequence length s
	Vocab  int // vocabulary size (embedding + LM head)
}

// Validate reports whether the configuration is internally consistent.
func (m ModelConfig) Validate() error {
	switch {
	case m.Hidden <= 0:
		return fmt.Errorf("cost: %s: hidden size must be positive", m.Name)
	case m.Layers <= 0:
		return fmt.Errorf("cost: %s: layer count must be positive", m.Name)
	case m.Heads <= 0:
		return fmt.Errorf("cost: %s: head count must be positive", m.Name)
	case m.SeqLen <= 0:
		return fmt.Errorf("cost: %s: sequence length must be positive", m.Name)
	case m.Vocab <= 0:
		return fmt.Errorf("cost: %s: vocabulary size must be positive", m.Name)
	case m.Hidden%m.Heads != 0:
		return fmt.Errorf("cost: %s: hidden size %d not divisible by %d heads", m.Name, m.Hidden, m.Heads)
	}
	return nil
}

// ParamsPerLayer returns the parameter count of one transformer layer
// (attention 4h² + MLP 8h², biases and norms ignored).
func (m ModelConfig) ParamsPerLayer() float64 {
	h := float64(m.Hidden)
	return 12 * h * h
}

// EmbeddingParams returns the parameter count of the (tied) token embedding.
func (m ModelConfig) EmbeddingParams() float64 {
	return float64(m.Vocab) * float64(m.Hidden)
}

// TotalParams returns the total parameter count, embedding included once
// (tied input/output embedding, as in GPT-3).
func (m ModelConfig) TotalParams() float64 {
	return m.ParamsPerLayer()*float64(m.Layers) + m.EmbeddingParams()
}

// WithSeqLen returns a copy with the sequence length replaced; used by the
// sequence-length scaling experiment (Fig. 9).
func (m ModelConfig) WithSeqLen(s int) ModelConfig {
	m.SeqLen = s
	m.Name = fmt.Sprintf("%s-seq%d", m.Name, s)
	return m
}

// WithLayers returns a copy with the layer count replaced; used by the
// profiler's block-count sweep.
func (m ModelConfig) WithLayers(l int) ModelConfig {
	m.Layers = l
	m.Name = fmt.Sprintf("%s-L%d", m.Name, l)
	return m
}

// WithHidden returns a copy with the hidden size replaced; used by the
// parameter scaling experiment (Fig. 8).
func (m ModelConfig) WithHidden(h int) ModelConfig {
	m.Hidden = h
	m.Name = fmt.Sprintf("%s-h%d", m.Name, h)
	return m
}

// Model presets from Table 4. Vocabulary sizes follow the public GPT-3
// (50257, rounded to the Megatron-padded 50304) and LLaMA-2 (32000) configs.
var (
	GPT3_1_6B  = ModelConfig{Name: "GPT3-1.6B", Hidden: 1024, Layers: 128, Heads: 16, SeqLen: 1024, Vocab: 50304}
	GPT3_13B   = ModelConfig{Name: "GPT3-13B", Hidden: 3000, Layers: 128, Heads: 40, SeqLen: 1024, Vocab: 50304}
	LLaMA2_3B  = ModelConfig{Name: "LLaMA2-3B", Hidden: 2048, Layers: 64, Heads: 16, SeqLen: 1024, Vocab: 32000}
	LLaMA2_13B = ModelConfig{Name: "LLaMA2-13B", Hidden: 4096, Layers: 64, Heads: 32, SeqLen: 1024, Vocab: 32000}
)

// Models lists the presets by name.
var Models = map[string]ModelConfig{
	GPT3_1_6B.Name:  GPT3_1_6B,
	GPT3_13B.Name:   GPT3_13B,
	LLaMA2_3B.Name:  LLaMA2_3B,
	LLaMA2_13B.Name: LLaMA2_13B,
}

// Hardware describes one accelerator and its interconnect. The defaults
// model the paper's testbed: A100-40G GPUs, four per node, nodes linked by
// InfiniBand.
type Hardware struct {
	// FLOPS is the achievable dense compute throughput in FLOP/s
	// (A100 fp16 peak is 312 TFLOP/s; ~45% is a typical Megatron MFU).
	FLOPS float64
	// MemBytes is device memory capacity in bytes.
	MemBytes float64
	// LinkBandwidth is p2p bandwidth between neighbouring pipeline ranks in
	// bytes/s.
	LinkBandwidth float64
	// LinkLatency is the fixed p2p latency per transfer in seconds.
	LinkLatency float64
	// LaunchOverhead is the per-instruction framework overhead in seconds
	// (DeepSpeed instruction dispatch, kernel launch); this is the bias b
	// that the paper's linear-regression estimators learn.
	LaunchOverhead float64
	// FrameworkMem is the static memory consumed by the framework stack
	// (Megatron + DeepSpeed + PyTorch + CUDA context); the paper's simulator
	// measures it at about 2 GB (§6.6).
	FrameworkMem float64
	// BackwardRatio is T_bw / T_fw for a transformer block. The paper cites
	// about 1.6 for a real transformer layer and uses 2 in illustrations.
	BackwardRatio float64
}

// Validate reports whether the description is one the estimators can divide
// by and the simulator can budget against: every field finite; FLOPS,
// MemBytes, LinkBandwidth and BackwardRatio positive; the latencies, the
// launch overhead and FrameworkMem not negative.
func (h Hardware) Validate() error {
	for _, f := range []struct {
		name     string
		v        float64
		positive bool
	}{
		{"FLOPS", h.FLOPS, true},
		{"MemBytes", h.MemBytes, true},
		{"LinkBandwidth", h.LinkBandwidth, true},
		{"BackwardRatio", h.BackwardRatio, true},
		{"LinkLatency", h.LinkLatency, false},
		{"LaunchOverhead", h.LaunchOverhead, false},
		{"FrameworkMem", h.FrameworkMem, false},
	} {
		switch {
		case math.IsNaN(f.v) || math.IsInf(f.v, 0):
			return fmt.Errorf("cost: hardware %s must be finite (got %g)", f.name, f.v)
		case f.positive && f.v <= 0:
			return fmt.Errorf("cost: hardware %s must be positive (got %g)", f.name, f.v)
		case f.v < 0:
			return fmt.Errorf("cost: hardware %s must not be negative (got %g)", f.name, f.v)
		}
	}
	return nil
}

// A100_40G is the paper's GPU, with effective (not peak) throughput.
var A100_40G = Hardware{
	FLOPS:          140e12,
	MemBytes:       40 * (1 << 30),
	LinkBandwidth:  25e9,
	LinkLatency:    8e-6,
	LaunchOverhead: 120e-6,
	FrameworkMem:   2 * (1 << 30),
	BackwardRatio:  1.8,
}

// H100_80G models the larger-system scenario of §7.3 (6,144 H100 GPUs
// training a 462B model): roughly 3× the effective compute, double the
// memory and faster links.
var H100_80G = Hardware{
	FLOPS:          420e12,
	MemBytes:       80 * (1 << 30),
	LinkBandwidth:  50e9,
	LinkLatency:    6e-6,
	LaunchOverhead: 100e-6,
	FrameworkMem:   2 * (1 << 30),
	BackwardRatio:  1.8,
}

// BytesPerParamTraining is the per-parameter training state in bytes under
// mixed-precision Adam without ZeRO partitioning: fp16 weights (2) + fp16
// gradients (2) + fp32 master weights, momentum and variance (12).
const BytesPerParamTraining = 16

// BytesPerActElem is the storage width of activation elements (fp16).
const BytesPerActElem = 2
