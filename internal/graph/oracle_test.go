package graph_test

import (
	"errors"
	"math/rand"
	"testing"

	"mario/internal/graph"
	"mario/internal/sim"
	"mario/internal/sim/difftest"
)

// TestScanFilterOracle runs the filter-off oracle over the differential
// harness's workloads — every scheme family, fused and split backward,
// perturbed per-stage costs, memory limits between the device peaks, DP —
// on equal and on unequal device speeds, and again after each of a few of the
// harness's single-device mutations that leave the schedule executable, whose
// critical chains no generator would produce.
func TestScanFilterOracle(t *testing.T) {
	seeds := 96
	if testing.Short() {
		seeds = 16
	}
	checked, searches := 0, 0
	for seed := 0; seed < seeds; seed++ {
		// Every fourth workload is search-sized: long steady phases, chains
		// that cross many devices.
		w, err := difftest.NewWorkload(int64(seed))
		if seed%4 == 3 {
			w, err = difftest.NewWorkloadShape(int64(seed), 6+seed%7, 12+seed%9)
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed%2 == 1 {
			rng := rand.New(rand.NewSource(int64(seed)))
			w.Est.DeviceSpeed = make([]float64, w.S.NumDevices())
			for d := range w.Est.DeviceSpeed {
				w.Est.DeviceSpeed[d] = 0.6 + rng.Float64()
			}
		}
		if !w.S.Checkpointed {
			w.S = graph.ApplyCheckpoint(w.S)
			graph.OverlapRecompute(w.S)
			graph.RemoveRedundancy(w.S)
			graph.OverlapRecompute(w.S)
		}
		desc := "unmutated"
		for step := 0; step < 4; step++ {
			_, n, err := graph.ScanOracle(w.S, graph.Options{Estimator: w.Est, Sim: w.Opt})
			if errors.Is(err, sim.ErrDeadlock) || errors.Is(err, sim.ErrCommMismatch) {
				break // a mutation broke the schedule; later ones will not mend it
			}
			if err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, desc, err)
			}
			checked += n
			searches++
			desc = w.Mutate()
		}
	}
	if checked == 0 {
		t.Fatal("the filter refused no candidate: the oracle checked nothing")
	}
	t.Logf("%d filtered candidates over %d searches, none improves", checked, searches)
}
