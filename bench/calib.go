package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The sandboxes this benchmark runs in share their host. For minutes at a
// time — about a fifth of the time when the baseline was taken — the same
// code runs 40–55 % slower, on every workload at once, with no steal reported
// and more CPU time per op: the processor itself is slower, as when a
// neighbour occupies the sibling hardware threads. Wall times taken then say
// nothing about the code, and sets of ten runs that straddle such a period
// spread by 30–50 %.
//
// So the load generators interleave a fixed kernel of the benchmark's own
// with the ops — standard library only, independent of the repository's code
// — and a run's wall-clock metrics are divided by the run's slowdown: the
// kernel's median time over calibReference. A reported time is what the op
// takes on a machine on which the kernel takes calibReference; the header
// gives the slowdown, so value × slowdown is the time as measured. Across
// runs the kernel tracks the workloads' slow-downs (correlation 0.94–0.98
// with the measured op_ms_p50); it does not match them exactly, because how
// much a busy host slows code down depends on the code (a sort 1.3×, a JSON
// round trip 1.75×, the four workloads 1.4–1.55×; the kernel, a sort and a
// JSON round trip, 1.5×), which is why the wall-clock bounds stay wide.

// calibReference is the kernel's time on the reference machine: the quiet
// 2-core sandbox the baseline was measured on.
const calibReference = 2500 * time.Microsecond

// calibEvery is the least time between two kernel runs of one load
// generator; it keeps the kernel's share of the window near 1 %.
const calibEvery = 200 * time.Millisecond

// calibrator runs the kernel: fill 160 KB with a fixed pseudo-random
// sequence and sort it, then encode a fixed document as JSON and decode it
// again — arithmetic, branches, memory traffic, reflection and allocation,
// roughly what the planner and its service spend their time on.
type calibrator struct {
	buf  []uint64
	doc  map[string]any
	last time.Time
}

func (c *calibrator) run() time.Duration {
	if c.buf == nil {
		c.buf = make([]uint64, 20000)
		c.doc = map[string]any{}
		for i := 0; i < 300; i++ {
			c.doc[fmt.Sprintf("k%d", i)] = []any{float64(i) * 1.5, fmt.Sprintf("v%d", i),
				map[string]any{"a": float64(i), "b": []float64{1, 2, 3, 4.5}}}
		}
	}
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := range c.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.buf[i] = x
	}
	slices.Sort(c.buf)
	data, err := json.Marshal(c.doc)
	var back map[string]any
	if err == nil {
		err = json.Unmarshal(data, &back)
	}
	if err != nil || len(back) != len(c.doc) {
		panic(fmt.Sprintf("bench: calibration kernel: %v", err)) // a fixed document round-trips
	}
	c.last = time.Now()
	return c.last.Sub(t0)
}

// kernelCost measures what one kernel run allocates, so that the window's
// allocation metrics can leave the kernel out. It must run while nothing
// else allocates: first thing in a run.
func kernelCost() (mallocs, bytes float64) {
	var c calibrator
	c.run() // the first run also builds the document and warms encoding/json's caches
	const n = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// due reports whether calibEvery has passed since the last kernel run.
func (c *calibrator) due() bool { return time.Since(c.last) >= calibEvery }

// calibLog collects the kernel times of all load generators, in ms.
type calibLog struct {
	mu      sync.Mutex
	samples []float64
}

func (l *calibLog) add(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, millis(d))
	l.mu.Unlock()
}

// slowdown is how much slower than the reference machine this one ran while
// the samples were taken.
func (l *calibLog) slowdown() float64 {
	return median(l.samples) / millis(calibReference)
}
