package mario_test

import (
	"reflect"
	"strings"
	"testing"

	"mario"
	"mario/internal/cost"
	"mario/internal/profile"
	"mario/internal/telemetry"
)

// TestFingerprintCoversConfig walks mario.Config by reflection: every field is
// either the workload's — set to a valid value that is not its default, it
// moves Resolve(...).Fingerprint(), because it reaches the search — or a run's,
// named in runOnly, and then it must not (the plan is bit-identical for every
// worker count and tracer: a fingerprint that moved would split the
// cache). A field added to Config without a line in one of the two tables
// fails: whether it is part of a workload's identity is decided, not
// inherited. NoBnB is the workload's — it changes the trace and the search
// stats — which TestFingerprintStrategyFields used to pin by name.
func TestFingerprintCoversConfig(t *testing.T) {
	base := func() mario.Config { return mario.Config{NumDevices: 8, GlobalBatchSize: 64} }
	model := mario.Model("LLaMA2-3B")
	on := true
	h100 := cost.H100_80G
	workload := map[string]func(*mario.Config){
		"PipelineScheme":  func(c *mario.Config) { c.PipelineScheme = "V" },
		"GlobalBatchSize": func(c *mario.Config) { c.GlobalBatchSize = 128 },
		"NumDevices":      func(c *mario.Config) { c.NumDevices = 16 },
		"MemoryPerDevice": func(c *mario.Config) { c.MemoryPerDevice = "80G" },
		"TP":              func(c *mario.Config) { c.TP = 2 },
		"Checkpoint":      func(c *mario.Config) { c.Checkpoint = &on },
		"SplitBackward":   func(c *mario.Config) { c.SplitBackward = true },
		"MicroBatchSizes": func(c *mario.Config) { c.MicroBatchSizes = []int{1, 2} },
		"MinPP":           func(c *mario.Config) { c.MinPP = 2 },
		"MaxPP":           func(c *mario.Config) { c.MaxPP = 4 },
		"Machine":         func(c *mario.Config) { c.Machine = profile.MachineSpec{Noise: 0.1, MemSlack: 1.2, Seed: 7} },
		"DeviceSpeeds":    func(c *mario.Config) { c.DeviceSpeeds = []float64{1, 1, 1, 0.8, 1, 1, 1, 1} },
		"Placement":       func(c *mario.Config) { c.Placement = "coopt" },
		"Hardware":        func(c *mario.Config) { c.Hardware = &h100 },
		"NoBnB":           func(c *mario.Config) { c.NoBnB = true },
	}
	runOnly := map[string]func(*mario.Config){
		"Progress": func(c *mario.Config) { c.Progress = func(int, string, float64) {} },
		"Workers":  func(c *mario.Config) { c.Workers = 7 },
		"Tracer":   func(c *mario.Config) { c.Tracer = telemetry.New("another-fingerprint") },
		"Metrics":  func(c *mario.Config) { c.Metrics = telemetry.NewSearchMetrics(telemetry.NewRegistry()) },
	}
	fingerprint := func(set func(*mario.Config)) string {
		t.Helper()
		conf := base()
		if set != nil {
			set(&conf)
		}
		w, err := mario.Resolve(conf, model)
		if err != nil {
			t.Fatal(err)
		}
		return w.Fingerprint()
	}
	bare := fingerprint(nil)
	typ := reflect.TypeOf(mario.Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		setWorkload, isWorkload := workload[name]
		setRun, isRun := runOnly[name]
		switch {
		case isWorkload == isRun:
			t.Errorf("Config.%s: in both tables or in neither — say whether it is part of the workload's identity", name)
		case isWorkload && fingerprint(setWorkload) == bare:
			t.Errorf("Config.%s reaches the search but does not move the fingerprint", name)
		case isRun && fingerprint(setRun) != bare:
			t.Errorf("Config.%s moves the fingerprint, but the plan is bit-identical — the cache would split", name)
		}
	}
	if n := len(workload) + len(runOnly); n != typ.NumField() {
		t.Errorf("the tables name %d fields, Config has %d: a table line names a field that is gone", n, typ.NumField())
	}
}

// TestResolveBounds: the cluster, the global batch and the micro-batch size
// list are bounded, and the bounds are inclusive. The largest in-repo workload
// (BenchmarkTuning1024GPU), a workload at both size bounds and a list of 120
// distinct sizes resolve; one device, one sample or one size more is refused,
// and so is a size listed twice, by Resolve and so by Optimize.
func TestResolveBounds(t *testing.T) {
	model := mario.Model("GPT3-13B")
	for _, conf := range []mario.Config{
		{NumDevices: 1024, GlobalBatchSize: 2048},
		{NumDevices: 1 << 14, GlobalBatchSize: 1 << 16},
		{NumDevices: 8, GlobalBatchSize: 64, MicroBatchSizes: sizes(120)},
	} {
		if _, err := mario.Resolve(conf, model); err != nil {
			t.Errorf("%d devices, global batch %d, %d micro-batch sizes: %v",
				conf.NumDevices, conf.GlobalBatchSize, len(conf.MicroBatchSizes), err)
		}
	}
	for _, tc := range []struct {
		conf    mario.Config
		wantErr string
	}{
		{mario.Config{NumDevices: 1<<14 + 1, GlobalBatchSize: 64}, "devices (16385) must be at most 16384"},
		{mario.Config{NumDevices: 8, GlobalBatchSize: 1<<16 + 1}, "global batch (65537) must be at most 65536"},
		// Every copy of a size, and every size past the most divisors a global
		// batch can have, used to be enumerated and probed again.
		{mario.Config{NumDevices: 8, GlobalBatchSize: 64, MicroBatchSizes: []int{1, 2, 1}}, "micro-batch sizes must be distinct (1 is listed twice)"},
		{mario.Config{NumDevices: 8, GlobalBatchSize: 64, MicroBatchSizes: sizes(121)}, "micro-batch sizes (121 listed) must be at most 120"},
		// Positive and finite, but its slowdown 1/speed is +Inf: the search
		// used to return a plan with throughput 0.
		{mario.Config{NumDevices: 8, GlobalBatchSize: 32, PipelineScheme: "1F1B", MemoryPerDevice: "72G",
			DeviceSpeeds: []float64{1, 1, 1, 1e-310, 1, 1, 1, 1}}, "device 3 speed 1e-310 is too small"},
	} {
		if _, err := mario.Optimize(tc.conf, model); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Optimize(%d devices, global batch %d) = %v, want an error containing %q",
				tc.conf.NumDevices, tc.conf.GlobalBatchSize, err, tc.wantErr)
		}
	}
}

// sizes returns the micro-batch sizes 1..n.
func sizes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
