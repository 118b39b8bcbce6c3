package difftest

import (
	"strings"
	"testing"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

// TestEngineReuseVsFreshRandomized is the harness's bread and butter: many
// seeds, many steps each, every step checked against a fresh engine and the
// naive reference.
func TestEngineReuseVsFreshRandomized(t *testing.T) {
	steps := 40
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		h, err := newHarness(int64(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := h.Run(steps); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestEngineReuseVsFreshEdgeSchedules pins the equivalence on the shapes the
// random generator visits rarely: single device, one micro-batch, two-device
// minimum pipelines, and a fixed seed on a plain four-device 1F1B.
func TestEngineReuseVsFreshEdgeSchedules(t *testing.T) {
	cases := []struct {
		name    string
		scheme  pipeline.Scheme
		devs    int
		micros  int
		memLim  float64
		mutates int
	}{
		{name: "single-device", scheme: pipeline.Scheme1F1B, devs: 1, micros: 4, mutates: 6},
		{name: "one-micro", scheme: pipeline.Scheme1F1B, devs: 3, micros: 1, mutates: 6},
		{name: "two-device", scheme: pipeline.Scheme1F1B, devs: 2, micros: 2, mutates: 8},
		{name: "four-device", scheme: pipeline.Scheme1F1B, devs: 4, micros: 4, mutates: 6},
		{name: "memlimited", scheme: pipeline.Scheme1F1B, devs: 4, micros: 6, memLim: 1, mutates: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := scheme.Build(tc.scheme, scheme.Config{Devices: tc.devs, Micros: tc.micros})
			if err != nil {
				t.Fatal(err)
			}
			w := &Workload{
				S:   s,
				Est: cost.Uniform(s.NumStages(), 5, 9, 1),
				Opt: sim.Options{MemLimit: tc.memLim},
			}
			w.seed(7)
			h := &harness{W: w}
			for i := 0; i < tc.mutates; i++ {
				if err := h.Step(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestReferenceMatchesEngine holds the engine to the naive reference on valid
// schedules — every scheme, plain, checkpointed and graph-optimized, on
// homogeneous and heterogeneous ranks — where the randomized harness, whose
// mutations pile up, spends most of its steps on error outcomes.
func TestReferenceMatchesEngine(t *testing.T) {
	for _, sch := range []pipeline.Scheme{pipeline.SchemeGPipe, pipeline.Scheme1F1B, pipeline.SchemeChimera,
		pipeline.SchemeInterleave, pipeline.SchemeZBH1, pipeline.SchemeDualPipeD} {
		base, err := scheme.Build(sch, scheme.Config{Devices: 4, Micros: 8, Chunks: 2})
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		est := cost.Uniform(base.NumStages(), 5, 9, 1)
		est.LaunchOverhead, est.LinkLatency = 0.07, 0.3
		slow := *est
		slow.DeviceSpeed = []float64{1, 0.8, 1, 1.25}
		ckpt := graph.ApplyCheckpoint(base)
		tuned, _, err := graph.Optimize(base, graph.Options{Estimator: est})
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		for name, s := range map[string]*pipeline.Schedule{"plain": base, "ckpt": ckpt, "tuned": tuned} {
			for _, e := range []*cost.Estimator{est, &slow} {
				opt := sim.Options{DP: 2}
				got, gotErr := sim.Simulate(s, e, opt)
				ref, refErr := Reference(s, e, opt)
				if gotErr != nil || refErr != nil {
					t.Fatalf("%s/%s: engine err %v, reference err %v", sch, name, gotErr, refErr)
				}
				if err := compareTiming(got, nil, ref, nil); err != nil {
					t.Errorf("%s/%s: %v", sch, name, err)
				}
			}
		}
	}
}

// TestCanonDetectsDivergence makes sure the field-wise comparison itself
// sees a difference in every field of a result and names it.
func TestCanonDetectsDivergence(t *testing.T) {
	base := func() *sim.Result {
		return &sim.Result{
			Total:         10,
			SamplesPerSec: 3,
			PeakMem:       []float64{1, 2},
			ComputeBusy:   []float64{4, 5},
			OOMDevices:    []int{},
			Timeline: []obs.Event{
				{Instr: pipeline.Instr{Kind: pipeline.Forward}, Peer: -1, Start: 0, End: 1},
			},
		}
	}
	mutations := []struct {
		name   string
		mutate func(*sim.Result)
		field  string
	}{
		{"total", func(r *sim.Result) { r.Total++ }, "Total"},
		{"samples", func(r *sim.Result) { r.SamplesPerSec++ }, "SamplesPerSec"},
		{"oom", func(r *sim.Result) { r.OOM = true }, "OOM"},
		{"oomdevs", func(r *sim.Result) { r.OOMDevices = append(r.OOMDevices, 1) }, "OOMDevices"},
		{"peak", func(r *sim.Result) { r.PeakMem[1]++ }, "PeakMem[1]"},
		{"busy", func(r *sim.Result) { r.ComputeBusy[0]++ }, "ComputeBusy[0]"},
		{"span-end", func(r *sim.Result) { r.Timeline[0].End++ }, "Timeline[0].End"},
		{"span-kind", func(r *sim.Result) { r.Timeline[0].Kind = pipeline.Backward }, "Timeline[0].Instr"},
		{"record-peer", func(r *sim.Result) { r.Timeline[0].Peer = 1 }, "Timeline[0].Peer"},
		{"record-wait", func(r *sim.Result) { r.Timeline[0].Wait = 0.5 }, "Timeline[0].Wait"},
		{"record-mem", func(r *sim.Result) { r.Timeline[0].Mem = 1 }, "Timeline[0].Mem"},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			a, b := base(), base()
			m.mutate(b)
			err := compare(a, nil, b, nil)
			if err == nil {
				t.Fatalf("compare missed the %s divergence", m.name)
			}
			if !strings.HasPrefix(err.Error(), m.field+":") {
				t.Fatalf("mutation %s reported as %q, want field %s", m.name, err, m.field)
			}
			if err := compare(a, nil, base(), nil); err != nil {
				t.Fatalf("compare flagged identical results: %v", err)
			}
		})
	}
}

// FuzzEngineReuseEquivalence lets the fuzzer drive the workload seed and step
// count; any counterexample is a schedule+mutation sequence on which a reused
// engine, a fresh engine and the reference simulator do not all agree.
func FuzzEngineReuseEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(12))
	f.Add(int64(42), uint8(30))
	f.Add(int64(-7), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		h, err := newHarness(seed)
		if err != nil {
			t.Skip()
		}
		n := int(steps)%48 + 1
		if err := h.Run(n); err != nil {
			t.Fatal(err)
		}
	})
}
