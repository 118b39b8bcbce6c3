package nn

import (
	"math"
	"testing"

	"mario/internal/tensor"
)

// gradCheck compares the analytic input gradient of a layer against central
// finite differences of a scalar loss L = Σ y⊙g for a fixed random g.
func gradCheck(t *testing.T, name string, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	r := tensor.NewRNG(99)
	y, c := layer.Forward(x)
	g := tensor.Randn(r, 1, y.Shape...)
	dx, w := layer.BackwardInput(c, g)
	w()

	const eps = 1e-3
	for _, i := range []int{0, x.Len() / 2, x.Len() - 1} {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		yp, _ := layer.Forward(x)
		x.Data[i] = orig - eps
		ym, _ := layer.Forward(x)
		x.Data[i] = orig
		num := (tensor.Dot(yp, g) - tensor.Dot(ym, g)) / (2 * eps)
		ana := float64(dx.Data[i])
		scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
		if math.Abs(num-ana)/scale > tol {
			t.Errorf("%s: dx[%d] analytic %v vs numeric %v", name, i, ana, num)
		}
	}
}

func TestLinearGradCheck(t *testing.T) {
	r := tensor.NewRNG(1)
	gradCheck(t, "linear", NewLinear(r, 6, 5), tensor.Randn(r, 1, 4, 6), 2e-2)
}

func TestGELUGradCheck(t *testing.T) {
	r := tensor.NewRNG(2)
	gradCheck(t, "gelu", GELU{}, tensor.Randn(r, 1, 3, 7), 2e-2)
}

func TestLayerNormGradCheck(t *testing.T) {
	r := tensor.NewRNG(3)
	gradCheck(t, "layernorm", NewLayerNorm(8), tensor.Randn(r, 1, 4, 8), 2e-2)
}

func TestAttentionGradCheck(t *testing.T) {
	r := tensor.NewRNG(4)
	const d, T, B = 8, 4, 2
	gradCheck(t, "attention", NewAttention(r, d, T), tensor.Randn(r, 1, B*T, d), 3e-2)
}

func TestBlockGradCheck(t *testing.T) {
	r := tensor.NewRNG(5)
	const d, T = 8, 4
	gradCheck(t, "block", NewBlock(r, d, T), tensor.Randn(r, 1, T, d), 3e-2)
}

// TestLinearWeightGradient checks dW against finite differences.
func TestLinearWeightGradient(t *testing.T) {
	r := tensor.NewRNG(6)
	l := NewLinear(r, 4, 3)
	x := tensor.Randn(r, 1, 2, 4)
	y, c := l.Forward(x)
	g := tensor.Randn(r, 1, y.Shape...)
	_, w := l.BackwardInput(c, g)
	w()

	const eps = 1e-3
	i := 5 // some weight index
	orig := l.W.W.Data[i]
	l.W.W.Data[i] = orig + eps
	yp, _ := l.Forward(x)
	l.W.W.Data[i] = orig - eps
	ym, _ := l.Forward(x)
	l.W.W.Data[i] = orig
	num := (tensor.Dot(yp, g) - tensor.Dot(ym, g)) / (2 * eps)
	if math.Abs(num-l.W.Grad[i]) > 2e-2*math.Max(1, math.Abs(num)) {
		t.Errorf("dW[%d]: analytic %v vs numeric %v", i, l.W.Grad[i], num)
	}
}

// TestAttentionCausality: a change in a later token must not affect earlier
// outputs.
func TestAttentionCausality(t *testing.T) {
	r := tensor.NewRNG(7)
	const d, T = 6, 5
	a := NewAttention(r, d, T)
	x := tensor.Randn(r, 1, T, d)
	y1, _ := a.Forward(x)
	x2 := x.Clone()
	for j := 0; j < d; j++ {
		x2.Set(T-1, j, x2.At(T-1, j)+1)
	}
	y2, _ := a.Forward(x2)
	for i := 0; i < T-1; i++ {
		for j := 0; j < d; j++ {
			if y1.At(i, j) != y2.At(i, j) {
				t.Fatalf("token %d output changed by future token", i)
			}
		}
	}
	// The last token's output must change.
	changed := false
	for j := 0; j < d; j++ {
		if y1.At(T-1, j) != y2.At(T-1, j) {
			changed = true
		}
	}
	if !changed {
		t.Error("last token output unaffected by its own input")
	}
}

// TestForwardDroppedMatchesForward: the checkpointed forward produces
// bit-identical outputs.
func TestForwardDroppedMatchesForward(t *testing.T) {
	r := tensor.NewRNG(8)
	const d, T = 8, 4
	s := NewStage(r, 2, d, T)
	x := tensor.Randn(r, 1, T, d)
	y1, c := s.Forward(x)
	y2 := s.ForwardDropped(x)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatalf("dropped forward diverged at %d: %v vs %v", i, y1.Data[i], y2.Data[i])
		}
	}
	if c.Bytes() <= 0 {
		t.Error("retained cache reports no bytes")
	}
}

// TestStageBackwardAfterRecompute: BW through a recomputed cache equals BW
// through the original cache.
func TestStageBackwardAfterRecompute(t *testing.T) {
	r := tensor.NewRNG(9)
	const d, T = 8, 4
	mk := func() *Stage { return NewStage(tensor.NewRNG(123), 2, d, T) }
	x := tensor.Randn(r, 1, T, d)
	dy := tensor.Randn(r, 1, T, d)

	s1 := mk()
	_, c1 := s1.Forward(x)
	dx1, w1 := s1.BackwardInput(c1, dy)
	w1()

	s2 := mk()
	_ = s2.ForwardDropped(x) // CFW drops everything
	_, c2 := s2.Forward(x)   // RC restores the cache
	dx2, w2 := s2.BackwardInput(c2, dy)
	w2()

	for i := range dx1.Data {
		if dx1.Data[i] != dx2.Data[i] {
			t.Fatalf("recompute-path gradient differs at %d", i)
		}
	}
	p1, p2 := s1.Params(), s2.Params()
	for i := range p1 {
		for j := range p1[i].Grad {
			if p1[i].Grad[j] != p2[i].Grad[j] {
				t.Fatalf("weight gradient differs at param %d elem %d", i, j)
			}
		}
	}
}

// TestParamStep: SGD updates move weights against the gradient and clear it.
func TestParamStep(t *testing.T) {
	p := newParam(tensor.FromSlice([]float32{1, 2}, 2))
	p.Grad[0], p.Grad[1] = 10, -10
	p.Step(0.1, 2)
	if math.Abs(float64(p.W.Data[0])-0.5) > 1e-6 || math.Abs(float64(p.W.Data[1])-2.5) > 1e-6 {
		t.Errorf("step result %v", p.W.Data)
	}
	if p.Grad[0] != 0 || p.Grad[1] != 0 {
		t.Error("gradient not cleared")
	}
}

func TestStageParamsCount(t *testing.T) {
	s := NewStage(tensor.NewRNG(1), 3, 8, 4)
	// Per block: LN1(2) + Attn(4) + LN2(2) + FC1(2) + FC2(2) = 12 params.
	if got, want := len(s.Params()), 3*12; got != want {
		t.Errorf("param count = %d, want %d", got, want)
	}
}
