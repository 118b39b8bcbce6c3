package tensor

import (
	"math"
	"testing"
)

func TestNewAndShape(t *testing.T) {
	a := New(3, 4)
	if a.Len() != 12 || a.Rows() != 3 || a.Shape[1] != 4 || a.Bytes() != 48 {
		t.Errorf("basic accessors wrong: %+v", a)
	}
	a.Set(2, 3, 5)
	if a.At(2, 3) != 5 {
		t.Error("At/Set broken")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(3, 0)
}

func TestFromSlice(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if a.At(1, 0) != 3 {
		t.Error("FromSlice layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on size mismatch")
		}
	}()
	FromSlice([]float32{1}, 2, 2)
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

// TestMatMulTransposesConsistent: MatMulT1(a,b) == MatMul(aᵀ,b) and
// MatMulT2(a,b) == MatMul(a,bᵀ), via random matrices.
func TestMatMulTransposesConsistent(t *testing.T) {
	r := NewRNG(11)
	a := Randn(r, 1, 5, 7)
	b := Randn(r, 1, 5, 3)
	t1 := MatMulT1(a, b) // aᵀ·b, [7,3]
	at := transpose(a)
	ref := MatMul(at, b)
	for i := range ref.Data {
		if math.Abs(float64(t1.Data[i]-ref.Data[i])) > 1e-4 {
			t.Fatalf("MatMulT1 mismatch at %d", i)
		}
	}
	c := Randn(r, 1, 4, 7)
	d := Randn(r, 1, 6, 7)
	t2 := MatMulT2(c, d) // c·dᵀ, [4,6]
	ref2 := MatMul(c, transpose(d))
	for i := range ref2.Data {
		if math.Abs(float64(t2.Data[i]-ref2.Data[i])) > 1e-4 {
			t.Fatalf("MatMulT2 mismatch at %d", i)
		}
	}
}

func transpose(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

// TestMatMulParallelMatchesSerial: large matmul (which fans out goroutines)
// agrees with a naive serial product.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	r := NewRNG(13)
	a := Randn(r, 1, 64, 32)
	b := Randn(r, 1, 32, 48)
	got := MatMul(a, b)
	for _, probe := range [][2]int{{0, 0}, {63, 47}, {31, 17}} {
		i, j := probe[0], probe[1]
		var s float64
		for p := 0; p < 32; p++ {
			s += float64(a.At(i, p)) * float64(b.At(p, j))
		}
		if math.Abs(float64(got.At(i, j))-s) > 1e-3 {
			t.Errorf("parallel MatMul[%d,%d] = %v, serial %v", i, j, got.At(i, j), s)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected shape panic")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	if got := Add(a, b); got.Data[3] != 12 {
		t.Error("Add broken")
	}
	AddInPlace(a, b)
	if a.Data[0] != 6 || b.Data[0] != 5 {
		t.Error("AddInPlace broken")
	}
}

func TestRowOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float32{10, 20}, 2)
	if got := AddRowVec(a, v); got.At(1, 1) != 24 {
		t.Error("AddRowVec broken")
	}
	if got := SumRows(a); got.Data[0] != 4 || got.Data[1] != 6 {
		t.Error("SumRows broken")
	}
}

func TestMSE(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{0, 0}, 2)
	loss, grad := MSE(a, b)
	if math.Abs(loss-2.5) > 1e-9 {
		t.Errorf("MSE = %v, want 2.5", loss)
	}
	if math.Abs(float64(grad.Data[1])-2) > 1e-6 {
		t.Errorf("grad = %v", grad.Data)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if NewRNG(5).Float64() == NewRNG(6).Float64() {
		t.Error("different seeds produced same first value")
	}
}

// TestNormalMoments: the Box–Muller output has roughly zero mean and unit
// variance.
func TestNormalMoments(t *testing.T) {
	r := NewRNG(77)
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.normal()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("variance = %v", variance)
	}
}
