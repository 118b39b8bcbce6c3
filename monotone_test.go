package mario_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mario"
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
