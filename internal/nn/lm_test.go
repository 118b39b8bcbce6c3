package nn

import (
	"math"
	"testing"

	"mario/internal/tensor"
)

func TestEmbeddingForwardBackward(t *testing.T) {
	r := tensor.NewRNG(1)
	e := NewEmbedding(r, 10, 4)
	ids := []int{3, 7, 3}
	y := e.Forward(ids)
	if y.Shape[0] != 3 || y.Shape[1] != 4 {
		t.Fatalf("shape %v", y.Shape)
	}
	// Rows 0 and 2 are the same embedding.
	for j := 0; j < 4; j++ {
		if y.At(0, j) != y.At(2, j) {
			t.Fatal("same token embedded differently")
		}
	}
	dy := tensor.New(3, 4)
	for i := range dy.Data {
		dy.Data[i] = 1
	}
	e.Backward(ids, dy)
	// Token 3 appears twice → gradient 2 per element; token 7 once; others 0.
	if e.W.Grad[3*4] != 2 || e.W.Grad[7*4] != 1 || e.W.Grad[0] != 0 {
		t.Errorf("grads: tok3=%v tok7=%v tok0=%v", e.W.Grad[3*4], e.W.Grad[7*4], e.W.Grad[0])
	}
}

func TestEmbeddingPanicsOutOfVocab(t *testing.T) {
	e := NewEmbedding(tensor.NewRNG(1), 4, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.Forward([]int{4})
}

// TestCrossEntropyMatchesClosedForm: uniform logits give loss = ln(vocab)
// and gradient (1/V - onehot)/rows.
func TestCrossEntropyMatchesClosedForm(t *testing.T) {
	const rows, vocab = 2, 8
	logits := tensor.New(rows, vocab)
	loss, grad := CrossEntropy(logits, []int{1, 5})
	if want := math.Log(vocab); math.Abs(loss-want) > 1e-6 {
		t.Errorf("uniform loss = %v, want ln(%d)=%v", loss, vocab, want)
	}
	p := 1.0 / vocab / rows
	if math.Abs(float64(grad.At(0, 0))-p) > 1e-6 {
		t.Errorf("non-target grad = %v, want %v", grad.At(0, 0), p)
	}
	if math.Abs(float64(grad.At(0, 1))-(p-0.5)) > 1e-6 {
		t.Errorf("target grad = %v, want %v", grad.At(0, 1), p-0.5)
	}
}

// TestCrossEntropyGradCheck: finite differences on random logits.
func TestCrossEntropyGradCheck(t *testing.T) {
	r := tensor.NewRNG(4)
	logits := tensor.Randn(r, 1, 3, 5)
	targets := []int{2, 0, 4}
	_, grad := CrossEntropy(logits, targets)
	const eps = 1e-3
	for _, idx := range []int{0, 7, 14} {
		orig := logits.Data[idx]
		logits.Data[idx] = orig + eps
		lp, _ := CrossEntropy(logits, targets)
		logits.Data[idx] = orig - eps
		lm, _ := CrossEntropy(logits, targets)
		logits.Data[idx] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[idx])) > 1e-3 {
			t.Errorf("dlogits[%d]: analytic %v vs numeric %v", idx, grad.Data[idx], num)
		}
	}
}

// TestLMHeadGradCheck: input gradient of the projection.
func TestLMHeadGradCheck(t *testing.T) {
	r := tensor.NewRNG(5)
	h := NewLMHead(r, 6, 4)
	x := tensor.Randn(r, 1, 3, 4)
	logits, c := h.Forward(x)
	g := tensor.Randn(r, 1, logits.Shape...)
	dx, w := h.BackwardInput(c, g)
	w()
	const eps = 1e-3
	i := 5
	orig := x.Data[i]
	x.Data[i] = orig + eps
	yp, _ := h.Forward(x)
	x.Data[i] = orig - eps
	ym, _ := h.Forward(x)
	x.Data[i] = orig
	num := (tensor.Dot(yp, g) - tensor.Dot(ym, g)) / (2 * eps)
	if math.Abs(num-float64(dx.Data[i])) > 2e-2*math.Max(1, math.Abs(num)) {
		t.Errorf("dx[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
	}
}

// TestTiedHeadSharesGradient: with tied weights, both the embedding gather
// and the head projection accumulate into one table.
func TestTiedHeadSharesGradient(t *testing.T) {
	r := tensor.NewRNG(6)
	e := NewEmbedding(r, 8, 4)
	h := NewTiedLMHead(e)
	if h.W != e.W {
		t.Fatal("head not tied")
	}
	ids := []int{1, 2}
	x := e.Forward(ids)
	logits, c := h.Forward(x)
	_, dlogits := CrossEntropy(logits, []int{2, 3})
	dx, w := h.BackwardInput(c, dlogits)
	w()
	e.Backward(ids, dx)
	var nz int
	for _, g := range e.W.Grad {
		if g != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Error("tied table received no gradient")
	}
}

// TestLanguageModelLearnsCyclicSequence: a toy GPT learns to predict a
// deterministic cyclic token stream, driving the loss well below the
// uniform-prediction ln(V) baseline — end-to-end proof that the substrate
// trains a real language model.
func TestLanguageModelLearnsCyclicSequence(t *testing.T) {
	const vocab, dim, layers, seqLen = 6, 16, 1, 12
	m := NewLanguageModel(tensor.NewRNG(7), vocab, dim, layers, seqLen)
	tokens := make([]int, seqLen)
	targets := make([]int, seqLen)
	for i := range tokens {
		tokens[i] = i % vocab
		targets[i] = (i + 1) % vocab
	}
	first := m.Step(tokens, targets, 0.1)
	var last float64
	for i := 0; i < 120; i++ {
		last = m.Step(tokens, targets, 0.1)
	}
	if base := math.Log(vocab); first < base*0.5 {
		t.Fatalf("initial loss %v suspiciously below uniform baseline %v", first, base)
	}
	if last > first*0.3 {
		t.Errorf("loss did not drop: first %v, last %v", first, last)
	}
	t.Logf("loss %v -> %v over 120 steps (uniform baseline %v)", first, last, math.Log(vocab))
}
