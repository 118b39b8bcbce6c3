// Package nn provides transformer-style layers with hand-written forward and
// backward passes: Linear, GELU, LayerNorm, single-head causal
// self-attention, and the Block that composes them. Together with
// internal/train it forms the miniature training framework this
// reproduction substitutes for Megatron-DeepSpeed: activation checkpointing
// here really drops and recomputes tensors, so the semantic claims of the
// paper's schedules (identical losses, reduced live memory) are checked on
// real numbers.
package nn

import (
	"math"

	"mario/internal/tensor"
)

// Param is a trainable weight with its gradient accumulator. Gradients are
// accumulated in float64 so that accumulation order (which differs between
// pipeline schedules) does not perturb the result beyond float64 rounding.
type Param struct {
	W    *tensor.Tensor
	Grad []float64
}

func newParam(w *tensor.Tensor) *Param {
	return &Param{W: w, Grad: make([]float64, w.Len())}
}

// accumulate adds g into the float64 gradient buffer.
func (p *Param) accumulate(g *tensor.Tensor) {
	for i, v := range g.Data {
		p.Grad[i] += float64(v)
	}
}

// Step applies plain SGD with the given learning rate over the accumulated
// gradient divided by scale (the micro-batch count), then clears it.
func (p *Param) Step(lr float64, scale float64) {
	for i := range p.W.Data {
		p.W.Data[i] -= float32(lr * p.Grad[i] / scale)
		p.Grad[i] = 0
	}
}

// Cache holds the intermediate tensors a layer retains for its backward
// pass; Bytes reports its live footprint for the memory accounting.
type Cache interface {
	Bytes() int
}

// WeightWork is the deferred weight-gradient half of a split backward pass
// (zero-bubble B/W decomposition): invoking it accumulates the parameter
// gradients that BackwardInput postponed. It closes over the activations and
// output gradients it needs, so those tensors stay live until it runs.
type WeightWork func()

// noWeight is the weight work of a parameterless layer.
var noWeight WeightWork = func() {}

// layer is a differentiable module.
type layer interface {
	// Forward computes y and the cache needed by BackwardInput.
	Forward(x *tensor.Tensor) (*tensor.Tensor, Cache)
	// BackwardInput computes only the input gradient (the critical-path B
	// half of a split backward) and returns the weight-gradient work as a
	// deferred closure (the W half, free to run in a pipeline bubble). A
	// fused backward is this followed at once by the work, so fused and
	// split executions of the same schedule are bit-identical.
	BackwardInput(c Cache, dy *tensor.Tensor) (*tensor.Tensor, WeightWork)
	// Params returns the trainable parameters.
	Params() []*Param
}

// ---------------------------------------------------------------- Linear

// Linear is y = x·W + b.
type Linear struct {
	W *Param // [in, out]
	B *Param // [out]
}

// newLinear initialises a Linear layer with scaled-normal weights.
func newLinear(r *tensor.RNG, in, out int) *Linear {
	return &Linear{
		W: newParam(tensor.Randn(r, 1/math.Sqrt(float64(in)), in, out)),
		B: newParam(tensor.New(out)),
	}
}

type linearCache struct{ x *tensor.Tensor }

func (c *linearCache) Bytes() int { return c.x.Bytes() }

// Forward implements layer.
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	y := tensor.AddRowVec(tensor.MatMul(x, l.W.W), l.B.W)
	return y, &linearCache{x: x}
}

// BackwardInput implements layer. dx needs only the weight; dW = xᵀ·dy and
// dB = Σrows(dy) read the cached input and the output gradient, so both stay
// live inside the returned work.
func (l *Linear) BackwardInput(c Cache, dy *tensor.Tensor) (*tensor.Tensor, WeightWork) {
	lc := c.(*linearCache)
	w := func() {
		l.W.accumulate(tensor.MatMulT1(lc.x, dy))
		l.B.accumulate(tensor.SumRows(dy))
	}
	return tensor.MatMulT2(dy, l.W.W), w
}

// Params implements layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ---------------------------------------------------------------- GELU

// GELU is the tanh-approximated Gaussian error linear unit.
type GELU struct{}

type geluCache struct{ x *tensor.Tensor }

func (c *geluCache) Bytes() int { return c.x.Bytes() }

const geluK = 0.7978845608028654 // sqrt(2/pi)

// Forward implements layer.
func (GELU) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	y := tensor.New(x.Shape...)
	for i, v := range x.Data {
		xf := float64(v)
		y.Data[i] = float32(0.5 * xf * (1 + math.Tanh(geluK*(xf+0.044715*xf*xf*xf))))
	}
	return y, &geluCache{x: x}
}

// BackwardInput implements layer; GELU has no parameters, so the weight half
// is empty.
func (GELU) BackwardInput(c Cache, dy *tensor.Tensor) (*tensor.Tensor, WeightWork) {
	x := c.(*geluCache).x
	dx := tensor.New(x.Shape...)
	for i, v := range x.Data {
		xf := float64(v)
		u := geluK * (xf + 0.044715*xf*xf*xf)
		t := math.Tanh(u)
		du := geluK * (1 + 3*0.044715*xf*xf)
		g := 0.5*(1+t) + 0.5*xf*(1-t*t)*du
		dx.Data[i] = dy.Data[i] * float32(g)
	}
	return dx, noWeight
}

// Params implements layer.
func (GELU) Params() []*Param { return nil }

// ---------------------------------------------------------------- LayerNorm

// LayerNorm normalises the last dimension with learned gain and bias.
type LayerNorm struct {
	G, B *Param
	Eps  float64
}

// newLayerNorm returns a LayerNorm over vectors of width d.
func newLayerNorm(d int) *LayerNorm {
	g := tensor.New(d)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return &LayerNorm{G: newParam(g), B: newParam(tensor.New(d)), Eps: 1e-5}
}

type lnCache struct {
	xhat *tensor.Tensor
	inv  []float64 // per-row 1/std
}

func (c *lnCache) Bytes() int { return c.xhat.Bytes() + 8*len(c.inv) }

// Forward implements layer.
func (l *LayerNorm) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	rows, d := x.Shape[0], x.Shape[1]
	y := tensor.New(x.Shape...)
	xhat := tensor.New(x.Shape...)
	inv := make([]float64, rows)
	for i := 0; i < rows; i++ {
		row := x.Data[i*d : (i+1)*d]
		var mu float64
		for _, v := range row {
			mu += float64(v)
		}
		mu /= float64(d)
		var va float64
		for _, v := range row {
			dv := float64(v) - mu
			va += dv * dv
		}
		va /= float64(d)
		iv := 1 / math.Sqrt(va+l.Eps)
		inv[i] = iv
		for j, v := range row {
			h := (float64(v) - mu) * iv
			xhat.Data[i*d+j] = float32(h)
			y.Data[i*d+j] = float32(h)*l.G.W.Data[j] + l.B.W.Data[j]
		}
	}
	return y, &lnCache{xhat: xhat, inv: inv}
}

// BackwardInput implements layer. dx depends only on the gain, x̂ and the
// per-row statistics; dG = Σ dy·x̂ and dB = Σ dy are deferred, keeping x̂ and
// dy live in the returned work.
func (l *LayerNorm) BackwardInput(c Cache, dy *tensor.Tensor) (*tensor.Tensor, WeightWork) {
	lc := c.(*lnCache)
	rows, d := dy.Shape[0], dy.Shape[1]
	dx := tensor.New(dy.Shape...)
	for i := 0; i < rows; i++ {
		var sumDh, sumDhXhat float64
		for j := 0; j < d; j++ {
			dh := float64(dy.Data[i*d+j]) * float64(l.G.W.Data[j])
			sumDh += dh
			sumDhXhat += dh * float64(lc.xhat.Data[i*d+j])
		}
		for j := 0; j < d; j++ {
			dh := float64(dy.Data[i*d+j]) * float64(l.G.W.Data[j])
			xh := float64(lc.xhat.Data[i*d+j])
			dx.Data[i*d+j] = float32(lc.inv[i] * (dh - sumDh/float64(d) - xh*sumDhXhat/float64(d)))
		}
	}
	w := func() {
		dg := tensor.New(d)
		db := tensor.New(d)
		for i := 0; i < rows; i++ {
			for j := 0; j < d; j++ {
				dyv := float64(dy.Data[i*d+j])
				dg.Data[j] += float32(dyv * float64(lc.xhat.Data[i*d+j]))
				db.Data[j] += float32(dyv)
			}
		}
		l.G.accumulate(dg)
		l.B.accumulate(db)
	}
	return dx, w
}

// Params implements layer.
func (l *LayerNorm) Params() []*Param { return []*Param{l.G, l.B} }
