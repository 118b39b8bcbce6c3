// Package tensor is a minimal dense float32 tensor library backing the
// miniature training stack (internal/nn, internal/train) that this
// reproduction substitutes for the paper's Megatron-DeepSpeed deployment.
// It provides exactly the operations transformer-style blocks need, with a
// row-parallel matrix multiply to exploit multiple cores.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Data  []float32
	Shape []int
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Data: make([]float32, n), Shape: append([]int(nil), shape...)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	t := &Tensor{Data: data, Shape: append([]int(nil), shape...)}
	if t.Len() != len(data) {
		panic(fmt.Sprintf("tensor: %v needs %d elements, got %d", shape, t.Len(), len(data)))
	}
	return t
}

// Len returns the element count.
func (t *Tensor) Len() int {
	n := 1
	for _, s := range t.Shape {
		n *= s
	}
	return n
}

// Bytes returns the storage footprint in bytes.
func (t *Tensor) Bytes() int { return 4 * t.Len() }

// Rows returns the first dimension of a 2-D tensor.
func (t *Tensor) Rows() int { t.check2D(); return t.Shape[0] }

func (t *Tensor) check2D() {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: expected 2-D, got %v", t.Shape))
	}
}

// At returns the element at (i, j) of a 2-D tensor.
func (t *Tensor) At(i, j int) float32 { return t.Data[i*t.Shape[1]+j] }

// Set stores v at (i, j) of a 2-D tensor.
func (t *Tensor) Set(i, j int, v float32) { t.Data[i*t.Shape[1]+j] = v }

// RNG is the program's one deterministic generator, splitmix64: reproducible
// weights and data here, the emulator's jitter through NewStream.
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// NewStream seeds the stream-th generator of seed. Streams of one seed (one per
// device, say) are independent of each other and of NewRNG(seed).
func NewStream(seed, stream uint64) *RNG {
	return &RNG{state: seed*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9}
}

func (r *RNG) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.next()>>11) / float64(1<<53) }

// normal returns a standard normal value (Box–Muller).
func (r *RNG) normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Randn fills a new tensor with scaled normal values.
func Randn(r *RNG, scale float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(r.normal() * scale)
	}
	return t
}

// MatMul returns a·b for 2-D tensors, parallelised over rows of a.
func MatMul(a, b *Tensor) *Tensor {
	a.check2D()
	b.check2D()
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if b.Shape[0] != k {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v × %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	parallelRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.Data[i*k : (i+1)*k]
			oi := out.Data[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				bp := b.Data[p*n : (p+1)*n]
				for j := range oi {
					oi[j] += av * bp[j]
				}
			}
		}
	})
	return out
}

// MatMulT1 returns aᵀ·b (a is [k,m], result [m,n]); used by weight-gradient
// computation.
func MatMulT1(a, b *Tensor) *Tensor {
	a.check2D()
	b.check2D()
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if b.Shape[0] != k {
		panic(fmt.Sprintf("tensor: matmulT1 shape mismatch %v × %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	parallelRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			oi := out.Data[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := a.Data[p*m+i]
				if av == 0 {
					continue
				}
				bp := b.Data[p*n : (p+1)*n]
				for j := range oi {
					oi[j] += av * bp[j]
				}
			}
		}
	})
	return out
}

// MatMulT2 returns a·bᵀ (b is [n,k], a is [m,k], result [m,n]); used by
// input-gradient computation.
func MatMulT2(a, b *Tensor) *Tensor {
	a.check2D()
	b.check2D()
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	if b.Shape[1] != k {
		panic(fmt.Sprintf("tensor: matmulT2 shape mismatch %v × %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	parallelRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.Data[i*k : (i+1)*k]
			oi := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b.Data[j*k : (j+1)*k]
				var s float32
				for p := 0; p < k; p++ {
					s += ai[p] * bj[p]
				}
				oi[j] = s
			}
		}
	})
	return out
}

// parallelRows splits [0, m) across workers when m is large enough to pay
// for the goroutines.
func parallelRows(m int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	if workers <= 1 || m < 16 {
		f(0, m)
		return
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	sameShape(a, b)
	out := New(a.Shape...)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Tensor) {
	sameShape(a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AddRowVec adds a length-n vector to every row of a [m,n] tensor.
func AddRowVec(a, v *Tensor) *Tensor {
	a.check2D()
	n := a.Shape[1]
	if v.Len() != n {
		panic(fmt.Sprintf("tensor: row vector %v does not match %v", v.Shape, a.Shape))
	}
	out := New(a.Shape...)
	for i := 0; i < a.Shape[0]; i++ {
		for j := 0; j < n; j++ {
			out.Data[i*n+j] = a.Data[i*n+j] + v.Data[j]
		}
	}
	return out
}

// SumRows sums a [m,n] tensor over rows into a length-n vector; the bias
// gradient.
func SumRows(a *Tensor) *Tensor {
	a.check2D()
	n := a.Shape[1]
	out := New(n)
	for i := 0; i < a.Shape[0]; i++ {
		for j := 0; j < n; j++ {
			out.Data[j] += a.Data[i*n+j]
		}
	}
	return out
}

func sameShape(a, b *Tensor) {
	if len(a.Shape) != len(b.Shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
		}
	}
}

// MSE returns mean((a-b)²) in float64 and the gradient d/da.
func MSE(a, b *Tensor) (float64, *Tensor) {
	sameShape(a, b)
	n := float64(a.Len())
	grad := New(a.Shape...)
	var loss float64
	for i := range a.Data {
		d := float64(a.Data[i]) - float64(b.Data[i])
		loss += d * d
		grad.Data[i] = float32(2 * d / n)
	}
	return loss / n, grad
}
