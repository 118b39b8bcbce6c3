package mario_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mario"
	"mario/internal/scheme"
	"mario/internal/tuner"
)

// TestMoreMemoryNeverLowersBest is a metamorphic oracle over the whole
// planner: raising MemoryPerDevice only relaxes Equation 1's OOM penalty and
// the graph passes' memory limit, so Best's throughput never falls as the
// budget grows. The table is the five benchmark search specs (the first rows
// of corpusCases), each planned under its own budget and under budgets drawn
// from a fixed seed between 8 and 96 GiB, in ascending order.
func TestMoreMemoryNeverLowersBest(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range corpusCases(t)[:5] {
		own, err := mario.ParseMemory(tc.conf.MemoryPerDevice)
		if err != nil {
			t.Fatal(err)
		}
		budgets := []float64{own}
		for i := 0; i < 8; i++ {
			budgets = append(budgets, float64(8+rng.Intn(89))*(1<<30))
		}
		sort.Float64s(budgets)
		t.Run(tc.name, func(t *testing.T) {
			prev, prevLabel := 0.0, ""
			for _, mem := range budgets {
				conf := tc.conf
				conf.Workers = 1
				conf.MemoryPerDevice = fmt.Sprintf("%d", int64(mem))
				plan, err := mario.Optimize(conf, mario.Model(tc.model))
				if err != nil {
					t.Fatalf("%.1f GiB: %v", mem/(1<<30), err)
				}
				got := plan.Best.Throughput
				if got < prev {
					t.Errorf("%.1f GiB: best %s at %g samples/s, below %s at %g with less memory",
						mem/(1<<30), plan.Best.Label(), got, prevLabel, prev)
				}
				t.Logf("%.1f GiB: %s %g", mem/(1<<30), plan.Best.Label(), got)
				prev, prevLabel = got, plan.Best.Label()
			}
		})
	}
}

// TestWiderSpaceNeverLowersBest is the search space's monotone relation: a
// space that holds every grid point of a narrower one, each scored alike,
// never finds a worse Best. Each corpus spec is planned as given and under
// two widenings — extra micro-batch sizes, and MinPP lowered to 1 — and, at
// the workload level, llama3b-4 with Space.Schemes widened from the default
// three to every registered scheme. Where the wider Best is a point of the
// narrower grid it must be the narrower Best itself: the narrower points keep
// their relative canonical order, so the same argmax and tie-break pick it.
func TestWiderSpaceNeverLowersBest(t *testing.T) {
	for _, tc := range corpusCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			narrow := tc.conf
			narrow.Workers = 1
			wl, err := mario.Resolve(narrow, mario.Model(tc.model))
			if err != nil {
				t.Fatal(err)
			}
			base := optimizeSpace(t, wl, wl.Space)
			moreMBS := narrow
			moreMBS.MicroBatchSizes = append([]int(nil), wl.Space.MicroBatches...)
			for _, m := range []int{3, 6, 64} {
				if !slices.Contains(moreMBS.MicroBatchSizes, m) {
					moreMBS.MicroBatchSizes = append(moreMBS.MicroBatchSizes, m)
				}
			}
			lowPP := narrow
			lowPP.MinPP = 1
			for _, wide := range []struct {
				name string
				conf mario.Config
			}{{"micro-batch sizes", moreMBS}, {"MinPP 1", lowPP}} {
				plan, err := mario.Optimize(wide.conf, mario.Model(tc.model))
				if err != nil {
					t.Fatalf("%s: %v", wide.name, err)
				}
				checkWider(t, wide.name, wl.Space, base, plan.Best)
			}
		})
	}
	t.Run("llama3b-4/schemes", func(t *testing.T) {
		tc := corpusCases(t)[1]
		conf := tc.conf
		conf.Workers = 1
		wl, err := mario.Resolve(conf, mario.Model(tc.model))
		if err != nil {
			t.Fatal(err)
		}
		wide := wl.Space
		wide.Schemes = scheme.Schemes()
		checkWider(t, "every scheme", wl.Space, optimizeSpace(t, wl, wl.Space), optimizeSpace(t, wl, wide))
	})
}

// optimizeSpace plans wl over sp, a space resolved like wl.Space, at Workers 1.
func optimizeSpace(t *testing.T, wl *mario.Workload, sp tuner.Space) tuner.Candidate {
	t.Helper()
	w := *wl
	w.Space = sp
	plan, err := w.Optimize(context.Background(), mario.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return plan.Best
}

// checkWider holds a wider search's best to the narrower one's over the
// resolved narrower space sp.
func checkWider(t *testing.T, name string, sp tuner.Space, narrow, wide tuner.Candidate) {
	t.Helper()
	if wide.Throughput < narrow.Throughput {
		t.Errorf("%s: best %s at %g samples/s, below the narrower %s at %g",
			name, wide.Label(), wide.Throughput, narrow.Label(), narrow.Throughput)
	}
	inNarrow := slices.Contains(sp.Schemes, wide.Scheme) && slices.Contains(sp.Checkpoint, wide.Ckpt) &&
		wide.PP >= sp.MinPP && wide.PP <= sp.MaxPP && slices.Contains(sp.MicroBatches, wide.MicroBatch)
	if inNarrow && (wide.Label() != narrow.Label() || math.Float64bits(wide.Throughput) != math.Float64bits(narrow.Throughput)) {
		t.Errorf("%s: best %s at %g is a narrower grid point, but the narrower best is %s at %g",
			name, wide.Label(), wide.Throughput, narrow.Label(), narrow.Throughput)
	}
	t.Logf("%s: %s %g (narrower %s %g)", name, wide.Label(), wide.Throughput, narrow.Label(), narrow.Throughput)
}
