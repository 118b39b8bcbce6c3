package nn

import (
	"math"

	"mario/internal/tensor"
)

// Attention is single-head causal self-attention. Inputs are [B·T, d]
// tensors holding B samples of T tokens each; attention is block-diagonal
// over samples.
type Attention struct {
	Wq, Wk, Wv, Wo *Param
	SeqLen         int
	dim            int
}

// newAttention creates a causal attention layer of width d over sequences of
// length seqLen.
func newAttention(r *tensor.RNG, d, seqLen int) *Attention {
	scale := 1 / math.Sqrt(float64(d))
	return &Attention{
		Wq:     newParam(tensor.Randn(r, scale, d, d)),
		Wk:     newParam(tensor.Randn(r, scale, d, d)),
		Wv:     newParam(tensor.Randn(r, scale, d, d)),
		Wo:     newParam(tensor.Randn(r, scale, d, d)),
		SeqLen: seqLen,
		dim:    d,
	}
}

type attnCache struct {
	x, q, k, v, o *tensor.Tensor
	attn          []*tensor.Tensor // per-sample [T,T] softmax matrices
}

func (c *attnCache) Bytes() int {
	n := c.x.Bytes() + c.q.Bytes() + c.k.Bytes() + c.v.Bytes() + c.o.Bytes()
	for _, a := range c.attn {
		n += a.Bytes()
	}
	return n
}

// Forward implements layer.
func (a *Attention) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	bt := x.Shape[0]
	T := a.SeqLen
	if bt%T != 0 {
		panic("nn: attention input rows not a multiple of seqLen")
	}
	B := bt / T
	q := tensor.MatMul(x, a.Wq.W)
	k := tensor.MatMul(x, a.Wk.W)
	v := tensor.MatMul(x, a.Wv.W)
	o := tensor.New(bt, a.dim)
	invSqrt := 1 / math.Sqrt(float64(a.dim))
	attns := make([]*tensor.Tensor, B)
	for b := 0; b < B; b++ {
		qs := slice2D(q, b*T, T)
		ks := slice2D(k, b*T, T)
		vs := slice2D(v, b*T, T)
		s := tensor.MatMulT2(qs, ks) // [T,T]
		// Causal softmax with scaling.
		att := tensor.New(T, T)
		for i := 0; i < T; i++ {
			maxv := math.Inf(-1)
			for j := 0; j <= i; j++ {
				sv := float64(s.At(i, j)) * invSqrt
				if sv > maxv {
					maxv = sv
				}
			}
			var sum float64
			for j := 0; j <= i; j++ {
				e := math.Exp(float64(s.At(i, j))*invSqrt - maxv)
				att.Set(i, j, float32(e))
				sum += e
			}
			for j := 0; j <= i; j++ {
				att.Set(i, j, att.At(i, j)/float32(sum))
			}
		}
		attns[b] = att
		ob := tensor.MatMul(att, vs)
		copy(o.Data[b*T*a.dim:(b+1)*T*a.dim], ob.Data)
	}
	y := tensor.MatMul(o, a.Wo.W)
	return y, &attnCache{x: x, q: q, k: k, v: v, o: o, attn: attns}
}

// BackwardInput implements layer. The projection gradients dWo = oᵀ·dy and
// dW{q,k,v} = xᵀ·d{q,k,v} are deferred; the work closes over the cache, the
// output gradient and the intermediate d{q,k,v} tensors.
func (a *Attention) BackwardInput(c Cache, dy *tensor.Tensor) (*tensor.Tensor, WeightWork) {
	ac := c.(*attnCache)
	T := a.SeqLen
	B := ac.x.Shape[0] / T
	invSqrt := 1 / math.Sqrt(float64(a.dim))

	do := tensor.MatMulT2(dy, a.Wo.W)

	dq := tensor.New(ac.x.Shape[0], a.dim)
	dk := tensor.New(ac.x.Shape[0], a.dim)
	dv := tensor.New(ac.x.Shape[0], a.dim)
	for b := 0; b < B; b++ {
		att := ac.attn[b]
		dob := slice2D(do, b*T, T)
		qs := slice2D(ac.q, b*T, T)
		ks := slice2D(ac.k, b*T, T)
		vs := slice2D(ac.v, b*T, T)

		dvb := tensor.MatMulT1(att, dob) // [T,d]
		copy(dv.Data[b*T*a.dim:(b+1)*T*a.dim], dvb.Data)

		dAtt := tensor.MatMulT2(dob, vs) // [T,T]
		// Softmax backward per row, respecting the causal mask.
		dS := tensor.New(T, T)
		for i := 0; i < T; i++ {
			var dot float64
			for j := 0; j <= i; j++ {
				dot += float64(att.At(i, j)) * float64(dAtt.At(i, j))
			}
			for j := 0; j <= i; j++ {
				dS.Set(i, j, float32(float64(att.At(i, j))*(float64(dAtt.At(i, j))-dot)*invSqrt))
			}
		}
		dqb := tensor.MatMul(dS, ks)
		dkb := tensor.MatMulT1(dS, qs)
		copy(dq.Data[b*T*a.dim:(b+1)*T*a.dim], dqb.Data)
		copy(dk.Data[b*T*a.dim:(b+1)*T*a.dim], dkb.Data)
	}

	w := func() {
		a.Wo.accumulate(tensor.MatMulT1(ac.o, dy))
		a.Wq.accumulate(tensor.MatMulT1(ac.x, dq))
		a.Wk.accumulate(tensor.MatMulT1(ac.x, dk))
		a.Wv.accumulate(tensor.MatMulT1(ac.x, dv))
	}

	dx := tensor.MatMulT2(dq, a.Wq.W)
	tensor.AddInPlace(dx, tensor.MatMulT2(dk, a.Wk.W))
	tensor.AddInPlace(dx, tensor.MatMulT2(dv, a.Wv.W))
	return dx, w
}

// Params implements layer.
func (a *Attention) Params() []*Param { return []*Param{a.Wq, a.Wk, a.Wv, a.Wo} }

// slice2D views rows [start, start+rows) of a 2-D tensor without copying.
func slice2D(t *tensor.Tensor, start, rows int) *tensor.Tensor {
	d := t.Shape[1]
	return tensor.FromSlice(t.Data[start*d:(start+rows)*d], rows, d)
}

// Block is one transformer block: pre-norm attention and MLP with residual
// connections.
type Block struct {
	LN1  *LayerNorm
	Attn *Attention
	LN2  *LayerNorm
	FC1  *Linear
	Act  GELU
	FC2  *Linear
}

// newBlock builds a block of width d with a 4d MLP over sequences of length
// seqLen.
func newBlock(r *tensor.RNG, d, seqLen int) *Block {
	return &Block{
		LN1:  newLayerNorm(d),
		Attn: newAttention(r, d, seqLen),
		LN2:  newLayerNorm(d),
		FC1:  newLinear(r, d, 4*d),
		FC2:  newLinear(r, 4*d, d),
	}
}

type blockCache struct {
	c1, ca, c2, cf1, cg, cf2 Cache
}

func (c *blockCache) Bytes() int {
	return c.c1.Bytes() + c.ca.Bytes() + c.c2.Bytes() + c.cf1.Bytes() + c.cg.Bytes() + c.cf2.Bytes()
}

// Forward implements layer.
func (b *Block) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	h1, c1 := b.LN1.Forward(x)
	at, ca := b.Attn.Forward(h1)
	r1 := tensor.Add(x, at)
	h2, c2 := b.LN2.Forward(r1)
	f1, cf1 := b.FC1.Forward(h2)
	g, cg := b.Act.Forward(f1)
	f2, cf2 := b.FC2.Forward(g)
	y := tensor.Add(r1, f2)
	return y, &blockCache{c1: c1, ca: ca, c2: c2, cf1: cf1, cg: cg, cf2: cf2}
}

// BackwardInput implements layer: the input-gradient chain runs through all
// sub-layers immediately; their weight halves are composed last layer first,
// the order the input gradient reached them.
func (b *Block) BackwardInput(c Cache, dy *tensor.Tensor) (*tensor.Tensor, WeightWork) {
	bc := c.(*blockCache)
	df2, w2 := b.FC2.BackwardInput(bc.cf2, dy)
	dg, _ := b.Act.BackwardInput(bc.cg, df2) // GELU has no weights
	dh2, w1 := b.FC1.BackwardInput(bc.cf1, dg)
	dr1, wn2 := b.LN2.BackwardInput(bc.c2, dh2)
	tensor.AddInPlace(dr1, dy) // residual
	dat, wa := b.Attn.BackwardInput(bc.ca, dr1)
	dx, wn1 := b.LN1.BackwardInput(bc.c1, dat)
	tensor.AddInPlace(dx, dr1) // residual
	w := func() { w2(); w1(); wn2(); wa(); wn1() }
	return dx, w
}

// Params implements layer.
func (b *Block) Params() []*Param {
	var ps []*Param
	for _, l := range []layer{b.LN1, b.Attn, b.LN2, b.FC1, b.Act, b.FC2} {
		ps = append(ps, l.Params()...)
	}
	return ps
}
