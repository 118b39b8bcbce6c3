package mario_test

import (
	"reflect"
	"testing"

	"mario"
)

// heteroConf is the pinned heterogeneous scenario: GPT3-13B on 8 devices,
// one of which runs at 0.8× nominal speed. The 72G cap rules out pp=4 (its
// checkpointed peak is ~84G per device for any placement), so the search
// settles at pp=8 where the uneven stack gives the co-optimizer real freedom.
func heteroConf(placement string) mario.Config {
	return mario.Config{
		PipelineScheme:  "1F1B",
		GlobalBatchSize: 32,
		NumDevices:      8,
		MemoryPerDevice: "72G",
		MicroBatchSizes: []int{2},
		DeviceSpeeds:    []float64{1, 1, 1, 0.8, 1, 1, 1, 1},
		Placement:       placement,
	}
}

// TestHeteroCoOptBeatsUniform is the subsystem's acceptance contract: on the
// pinned heterogeneous scenario the co-optimized partitioning+placement plan
// strictly beats the uniform-split identity-placement baseline in both the
// predicted (simulator) and the measured (emulated cluster) throughput.
func TestHeteroCoOptBeatsUniform(t *testing.T) {
	model := mario.Model("GPT3-13B")

	uniform, err := mario.Optimize(heteroConf("uniform"), model)
	if err != nil {
		t.Fatal(err)
	}
	coopt, err := mario.Optimize(heteroConf("coopt"), model)
	if err != nil {
		t.Fatal(err)
	}

	// The uniform baseline keeps the even split and identity placement (the
	// rank speeds it carries merely describe the cluster).
	for r, d := range uniform.Best.Place.DeviceOf {
		if d != r {
			t.Fatalf("uniform baseline moved devices: %v", uniform.Best.Place.DeviceOf)
		}
	}
	mn, mx, total := model.Layers, 0, 0
	for _, n := range uniform.Best.Place.LayersPerStage {
		if n < mn {
			mn = n
		}
		if n > mx {
			mx = n
		}
		total += n
	}
	if mx-mn > 1 || total != model.Layers {
		t.Fatalf("uniform baseline split unevenly: %v", uniform.Best.Place.LayersPerStage)
	}
	if coopt.Best.Place == nil || reflect.DeepEqual(coopt.Best.Place, uniform.Best.Place) {
		t.Fatalf("co-opt did not move anything: %v", coopt.Best.Place)
	}

	if !(coopt.Best.Throughput > uniform.Best.Throughput) {
		t.Errorf("predicted: co-opt %.4f samples/s does not beat uniform %.4f",
			coopt.Best.Throughput, uniform.Best.Throughput)
	}

	mu, err := mario.Run(uniform, 2)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := mario.Run(coopt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(mc.SamplesPerSec > mu.SamplesPerSec) {
		t.Errorf("measured: co-opt %.4f samples/s does not beat uniform %.4f",
			mc.SamplesPerSec, mu.SamplesPerSec)
	}
	t.Logf("predicted: uniform %.3f vs co-opt %.3f samples/s (%.2f%%)",
		uniform.Best.Throughput, coopt.Best.Throughput,
		100*(coopt.Best.Throughput/uniform.Best.Throughput-1))
	t.Logf("measured:  uniform %.3f vs co-opt %.3f samples/s (%.2f%%)",
		mu.SamplesPerSec, mc.SamplesPerSec,
		100*(mc.SamplesPerSec/mu.SamplesPerSec-1))
}

// TestHeteroAutoExploresBothModes: with the default auto placement the
// search carries both the uniform baseline and the co-optimized assignment
// in its trace, and the winner is at least as good as either forced mode.
func TestHeteroAutoExploresBothModes(t *testing.T) {
	model := mario.Model("GPT3-13B")
	auto, err := mario.Optimize(heteroConf(""), model)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]bool{}
	for _, c := range auto.Trace {
		modes[string(c.PlaceMode)] = true
	}
	if !modes["uniform"] || !modes["coopt"] {
		t.Errorf("auto trace modes = %v, want both uniform and coopt", modes)
	}
	coopt, err := mario.Optimize(heteroConf("coopt"), model)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Best.Throughput < coopt.Best.Throughput {
		t.Errorf("auto best %.4f worse than forced co-opt %.4f",
			auto.Best.Throughput, coopt.Best.Throughput)
	}
}
