package nn

import (
	"fmt"
	"math"

	"mario/internal/tensor"
)

// Embedding maps token ids to vectors — the first-stage module of a GPT-style
// pipeline (the paper's first stage carries the token embedding, which is
// why its profile differs from middle stages).
type Embedding struct {
	W     *Param // [vocab, dim]
	Vocab int
	Dim   int
}

// NewEmbedding initialises a scaled-normal embedding table.
func NewEmbedding(r *tensor.RNG, vocab, dim int) *Embedding {
	return &Embedding{
		W:     newParam(tensor.Randn(r, 0.02, vocab, dim)),
		Vocab: vocab,
		Dim:   dim,
	}
}

// Forward gathers the rows for the given token ids into a [len(ids), dim]
// tensor.
func (e *Embedding) Forward(ids []int) *tensor.Tensor {
	out := tensor.New(len(ids), e.Dim)
	for i, id := range ids {
		if id < 0 || id >= e.Vocab {
			panic(fmt.Sprintf("nn: token id %d out of vocabulary [0,%d)", id, e.Vocab))
		}
		copy(out.Data[i*e.Dim:(i+1)*e.Dim], e.W.W.Data[id*e.Dim:(id+1)*e.Dim])
	}
	return out
}

// Backward scatters the output gradient back into the embedding rows.
func (e *Embedding) Backward(ids []int, dy *tensor.Tensor) {
	for i, id := range ids {
		for j := 0; j < e.Dim; j++ {
			e.W.Grad[id*e.Dim+j] += float64(dy.Data[i*e.Dim+j])
		}
	}
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.W} }

// LMHead projects hidden states to vocabulary logits. The weight may be the
// embedding table itself (tied weights, as in GPT; gradients then accumulate
// into the shared parameter from both uses).
type LMHead struct {
	W *Param // [vocab, dim]
}

// NewLMHead creates an untied head.
func NewLMHead(r *tensor.RNG, vocab, dim int) *LMHead {
	return &LMHead{W: newParam(tensor.Randn(r, 0.02, vocab, dim))}
}

type lmHeadCache struct{ x *tensor.Tensor }

func (c *lmHeadCache) Bytes() int { return c.x.Bytes() }

// Forward computes logits = x·Wᵀ, shape [rows, vocab].
func (h *LMHead) Forward(x *tensor.Tensor) (*tensor.Tensor, Cache) {
	return tensor.MatMulT2(x, h.W.W), &lmHeadCache{x: x}
}

// BackwardInput computes dx = dlogits·W immediately and defers the
// projection gradient dW = dlogitsᵀ·x into the returned weight work.
func (h *LMHead) BackwardInput(c Cache, dlogits *tensor.Tensor) (*tensor.Tensor, WeightWork) {
	x := c.(*lmHeadCache).x
	w := func() { h.W.accumulate(tensor.MatMulT1(dlogits, x)) }
	return tensor.MatMul(dlogits, h.W.W), w
}

// Params returns the projection weight.
func (h *LMHead) Params() []*Param { return []*Param{h.W} }

// CrossEntropy computes the mean next-token loss over logits [rows, vocab]
// against the target ids and returns the logits gradient
// (softmax − one-hot)/rows. Numerically stabilised by the row max.
func CrossEntropy(logits *tensor.Tensor, targets []int) (float64, *tensor.Tensor) {
	rows, vocab := logits.Shape[0], logits.Shape[1]
	if len(targets) != rows {
		panic(fmt.Sprintf("nn: %d logits rows but %d targets", rows, len(targets)))
	}
	grad := tensor.New(rows, vocab)
	var loss float64
	for i := 0; i < rows; i++ {
		row := logits.Data[i*vocab : (i+1)*vocab]
		maxv := float64(row[0])
		for _, v := range row[1:] {
			if float64(v) > maxv {
				maxv = float64(v)
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v) - maxv)
		}
		logZ := math.Log(sum) + maxv
		tgt := targets[i]
		if tgt < 0 || tgt >= vocab {
			panic(fmt.Sprintf("nn: target %d out of vocabulary [0,%d)", tgt, vocab))
		}
		loss += logZ - float64(row[tgt])
		for j := 0; j < vocab; j++ {
			p := math.Exp(float64(row[j]) - logZ)
			g := p
			if j == tgt {
				g -= 1
			}
			grad.Data[i*vocab+j] = float32(g / float64(rows))
		}
	}
	return loss / float64(rows), grad
}
