package mario_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"mario"
)

// TestComputeDriftDeterministic: a drift report is a function of the two
// streams it joins. Repeated calls on one measured run must give bit-equal
// reports — the join sums in list order, so no float depends on the order a
// map is walked in. encoding/json writes the shortest form that round-trips,
// so equal bytes are equal bits.
func TestComputeDriftDeterministic(t *testing.T) {
	plan, err := mario.Optimize(mario.Config{
		PipelineScheme: "1F1B", NumDevices: 4, GlobalBatchSize: 64, MemoryPerDevice: "40G",
		MicroBatchSizes: []int{1},
	}, mario.Model("LLaMA2-3B"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mario.RunWithOptions(plan, 2, mario.RunOptions{CollectEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < 20; i++ {
		dr, err := mario.Drift(plan, rep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("call %d: drift report differs from the first call's:\n%s\nvs\n%s", i, got, first)
		}
	}
}
