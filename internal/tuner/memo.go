package tuner

import (
	"sync"
	"sync/atomic"

	"mario/internal/pipeline"
)

// memo is a concurrency-safe, compute-once cache: the first caller of a key
// runs the compute function while later callers (including concurrent ones)
// block on the entry's sync.Once and share the result. Values must be treated
// as immutable by all callers — the tuner clones schedules before handing
// them out in Candidates.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]

	hits, misses atomic.Int64
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// do returns the cached value for k, computing it with f exactly once per
// key. Errors are cached too: a key that failed once fails the same way for
// every later caller, which keeps parallel and sequential searches identical.
func (c *memo[K, V]) do(k K, f func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	e, ok := c.m[k]
	if !ok {
		e = new(memoEntry[V])
		c.m[k] = e
	}
	c.mu.Unlock()
	computed := false
	e.once.Do(func() {
		e.val, e.err = f()
		computed = true
	})
	if computed {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e.val, e.err
}

// buildKey identifies one scheme.Build output. mbs is deliberately absent:
// schedule expansion depends only on the scheme, the pipeline depth and the
// micro-batch count (Interleave always builds scheme.Config's default two
// chunks), so checkpointed and non-checkpointed grid points (and repeated
// Search calls on the same tuner) share one build.
type buildKey struct {
	scheme  pipeline.Scheme
	devices int
	micros  int
}
