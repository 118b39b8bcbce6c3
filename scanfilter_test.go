package mario_test

import (
	"testing"

	"mario"
	"mario/internal/telemetry"
)

// TestScanFilterCounts pins what the prepose scan's critical-chain filter does
// on the planner benchmark's largest spec and on its split-backward spec (the
// inputs of bench/workloads.go, on profile.DefaultMachine, Workers 1 so the
// per-engine counts are one sequential walk's): how many single-device
// candidates the scans proposed, how many the filter refused unsimulated, how
// many deadlocked or mispaired a pop in their simulation, how many simulated
// without either, and the search's simulation total. The numbers are exact because the search is deterministic;
// a filter that stops firing — or starts refusing what it must not, which the
// byte-identity tests catch first — moves them.
func TestScanFilterCounts(t *testing.T) {
	for _, tc := range []struct {
		name, model                        string
		conf                               mario.Config
		filtered, illegal, simulated, sims int64
	}{
		{name: "gpt13b-64", model: "GPT3-13B",
			conf:     mario.Config{PipelineScheme: "Auto", NumDevices: 64, GlobalBatchSize: 256, MemoryPerDevice: "40G", Workers: 1},
			filtered: 334, illegal: 2, simulated: 8, sims: 37},
		{name: "zbh1-16", model: "GPT3-13B",
			conf:     mario.Config{PipelineScheme: "Z", NumDevices: 16, GlobalBatchSize: 64, MemoryPerDevice: "40G", Workers: 1},
			filtered: 54, illegal: 0, simulated: 3, sims: 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := telemetry.NewSearchMetrics(telemetry.NewRegistry())
			conf := tc.conf
			conf.Metrics = m
			if _, err := mario.Optimize(conf, mario.Model(tc.model)); err != nil {
				t.Fatal(err)
			}
			filtered, illegal, simulated := m.ScanFiltered.Value(), m.ScanIllegal.Value(), m.ScanSimulated.Value()
			t.Logf("scan=%d filtered=%d illegal=%d simulated=%d sims=%d",
				filtered+illegal+simulated, filtered, illegal, simulated, m.Sims.Value())
			if filtered != tc.filtered || illegal != tc.illegal || simulated != tc.simulated || m.Sims.Value() != tc.sims {
				t.Errorf("scan candidates filtered/illegal/simulated = %d/%d/%d, sims = %d; want %d/%d/%d, %d",
					filtered, illegal, simulated, m.Sims.Value(), tc.filtered, tc.illegal, tc.simulated, tc.sims)
			}
		})
	}
}
