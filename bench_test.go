// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), one benchmark per artifact, plus microbenchmarks of the library's
// hot paths. The experiment benches run the reduced "fast" sizes so the
// whole suite completes quickly; run cmd/experiments for the paper-scale
// numbers.
package mario_test

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"mario"
	"mario/internal/cluster"
	"mario/internal/cost"
	"mario/internal/experiments"
	"mario/internal/graph"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/profile"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/telemetry"
	"mario/internal/train"
	"mario/internal/tuner"
)

var fast = experiments.Opts{Fast: true}

// BenchmarkTable1MemoryFormulas regenerates Table 1 (peak memory footprint
// across pipeline schemes).
func BenchmarkTable1MemoryFormulas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(fast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Steps regenerates Figure 2 (the 21/28/25/23/22 t
// optimization staircase).
func BenchmarkFigure2Steps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps, err := experiments.Figure2(fast)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range steps {
			if s.Time != s.Paper {
				b.Fatalf("%s: %v != paper %v", s.Name, s.Time, s.Paper)
			}
		}
	}
}

// BenchmarkFigure5Visualization regenerates Figure 5 (pipeline charts).
func BenchmarkFigure5Visualization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure5(io.Discard, fast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Throughput regenerates Figure 6 (8-GPU throughput grid).
func BenchmarkFigure6Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(fast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Performance regenerates Table 5 (32-GPU performance and
// memory table).
func BenchmarkTable5Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(fast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7MemoryPerDevice regenerates Figure 7 (per-device peaks).
func BenchmarkFigure7MemoryPerDevice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(fast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8ParamScaling regenerates Figure 8 (hidden-size sweep to
// OOM).
func BenchmarkFigure8ParamScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(fast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9SeqScaling regenerates Figure 9 (sequence-length sweep).
func BenchmarkFigure9SeqScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(fast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10SimAccuracy regenerates Figure 10 (simulator accuracy).
func BenchmarkFigure10SimAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(fast); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11Tuning regenerates Figure 11 (tuning curve with DP).
func BenchmarkFigure11Tuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(fast); err != nil {
			b.Fatal(err)
		}
	}
}

// --- library microbenchmarks ---

// BenchmarkSimulate1F1B measures the DP simulator on the paper's §5.2
// reference point: GPT3-13B-shaped costs, 64 micro-batches, 32 devices
// (the paper's own simulator takes ~700 ms on this size).
func BenchmarkSimulate1F1B(b *testing.B) {
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 32, Micros: 64})
	if err != nil {
		b.Fatal(err)
	}
	est, err := cost.Analytic(cost.AnalyticConfig{Model: cost.GPT3_13B, HW: cost.A100_40G, Stages: 32, MicroBatch: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(s, est, sim.Options{NoTimeline: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateChimera measures the simulator on the bidirectional
// scheme at the same reference size.
func BenchmarkSimulateChimera(b *testing.B) {
	s, err := scheme.Build(pipeline.SchemeChimera, scheme.Config{Devices: 32, Micros: 64})
	if err != nil {
		b.Fatal(err)
	}
	est, err := cost.Analytic(cost.AnalyticConfig{Model: cost.GPT3_13B, HW: cost.A100_40G, Stages: 32, MicroBatch: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(s, est, sim.Options{NoTimeline: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphOptimize measures the full four-pass tuner on a 8-device,
// 32-micro 1F1B pipeline, on one engine bundle across iterations — the way a
// search runs it, one bundle per goroutine for all its grid points.
func BenchmarkGraphOptimize(b *testing.B) {
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 8, Micros: 32})
	if err != nil {
		b.Fatal(err)
	}
	est := cost.Uniform(8, 1, 2, 0.25)
	eng := graph.NewEngines()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.Optimize(s, graph.Options{Estimator: est, Engines: eng}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.Main.Sims)/float64(b.N), "sims/op")
}

// BenchmarkSimulateReuse contrasts a fresh package-level Simulate (allocates
// every buffer per call) against a reused Simulator engine (retained buffers,
// 3 allocs/op: the Result and its two per-device slices) on the paper's three
// scheme shapes at Figure-6-like sizes. Both do the same work — every call
// derives all metadata from its arguments and propagates once — so the gap is
// allocation alone.
func BenchmarkSimulateReuse(b *testing.B) {
	for _, tc := range []struct {
		name   string
		scheme pipeline.Scheme
		cfg    scheme.Config
		stages int
	}{
		{"V-1f1b-8x32", pipeline.Scheme1F1B, scheme.Config{Devices: 8, Micros: 32}, 8},
		{"X-chimera-8x16", pipeline.SchemeChimera, scheme.Config{Devices: 8, Micros: 16}, 8},
		{"W-interleave-8x32", pipeline.SchemeInterleave, scheme.Config{Devices: 8, Micros: 32, Chunks: 2}, 16},
	} {
		s, err := scheme.Build(tc.scheme, tc.cfg)
		if err != nil {
			b.Fatal(err)
		}
		est := cost.Uniform(tc.stages, 1, 2, 0.25)
		opt := sim.Options{NoTimeline: true}
		b.Run(tc.name+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Simulate(s, est, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/reused", func(b *testing.B) {
			eng := &sim.Simulator{}
			if _, err := eng.Simulate(s, est, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Simulate(s, est, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleBuild measures schedule expansion: every scheme at 16
// devices × 64 micro-batches, and the list-scheduled X, ZB-H1 and D at the
// paper's largest scale, 64 × 128. Each row builds through one warm
// scheme.Builder, the path a search's worker takes, so what a build
// allocates past its first is the schedule it returns. The list-scheduled
// rows report units/op, the compute units the list scheduler placed per
// build — an exact count. The 64 × 128 rows are bench-det rows:
// single-threaded, allocations repeatable.
func BenchmarkScheduleBuild(b *testing.B) {
	for _, tc := range []struct {
		scheme pipeline.Scheme
		cfg    scheme.Config
		listed bool // list-scheduled: report units/op
	}{
		{pipeline.Scheme1F1B, scheme.Config{Devices: 16, Micros: 64}, false},
		{pipeline.SchemeChimera, scheme.Config{Devices: 16, Micros: 64}, true},
		{pipeline.SchemeInterleave, scheme.Config{Devices: 16, Micros: 64}, false},
		{pipeline.SchemeGPipe, scheme.Config{Devices: 16, Micros: 64}, false},
		{pipeline.SchemeChimera, scheme.Config{Devices: 64, Micros: 128}, true},
		{pipeline.SchemeZBH1, scheme.Config{Devices: 64, Micros: 128}, true},
		{pipeline.SchemeDualPipeD, scheme.Config{Devices: 64, Micros: 128}, true},
	} {
		b.Run(fmt.Sprintf("%s-%dx%d", tc.scheme, tc.cfg.Devices, tc.cfg.Micros), func(b *testing.B) {
			var bld scheme.Builder
			s, err := bld.Build(tc.scheme, tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s, err = bld.Build(tc.scheme, tc.cfg); err != nil {
					b.Fatal(err)
				}
			}
			if tc.listed {
				units := 0
				for _, k := range []pipeline.Kind{pipeline.Forward, pipeline.Backward, pipeline.BackwardInput, pipeline.BackwardWeight} {
					units += s.CountKind(-1, k)
				}
				b.ReportMetric(float64(units), "units/op")
			}
		})
	}
}

// BenchmarkClusterRun measures the goroutine-per-device emulated execution.
func BenchmarkClusterRun(b *testing.B) {
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 8, Micros: 32})
	if err != nil {
		b.Fatal(err)
	}
	m := &cluster.Machine{Truth: cost.Uniform(8, 1, 2, 0.25), Noise: 0.05, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRunObs compares the emulated execution without event
// collection, with it, and with the collected events written out as JSONL.
// Run with -benchmem: the "off" case is the zero-cost-when-disabled guard —
// it must allocate no event storage on top of BenchmarkClusterRun.
func BenchmarkClusterRunObs(b *testing.B) {
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 8, Micros: 32})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name           string
		collect, jsonl bool
	}{
		{"off", false, false},
		{"collect", true, false},
		{"jsonl", true, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m := &cluster.Machine{Truth: cost.Uniform(8, 1, 2, 0.25), Noise: 0.05, Seed: 1, CollectEvents: mode.collect}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := m.Run(s, 1)
				if err != nil {
					b.Fatal(err)
				}
				if mode.jsonl {
					if err := obs.WriteJSONL(io.Discard, rep.Events); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDriftReport measures stats + drift derivation from a measured
// event stream (the post-run analysis path, off the hot loop).
func BenchmarkDriftReport(b *testing.B) {
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 8, Micros: 32})
	if err != nil {
		b.Fatal(err)
	}
	est := cost.Uniform(8, 1, 2, 0.25)
	pred, err := sim.Simulate(s, est, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := &cluster.Machine{Truth: est, Noise: 0.05, Seed: 1, CollectEvents: true}
	rep, err := m.Run(s, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := obs.Compute(rep.Events, rep.Total)
		if st.Instrs == 0 {
			b.Fatal("no instructions")
		}
		if r := obs.ComputeDrift(rep.Events, pred.Timeline, pred.PeakMem, rep.PeakMem); len(r.Kinds) == 0 {
			b.Fatal("empty drift report")
		}
	}
}

// BenchmarkProfile measures the lightweight profiling sweep (10 iterations,
// block-count regression), corresponding to the paper's 142 s profiling of
// LLaMA2-13B on real GPUs.
func BenchmarkProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := &profile.Profiler{Model: cost.LLaMA2_13B, HW: cost.A100_40G, Spec: profile.DefaultMachine, Devices: 4, Iters: 10}
		if _, err := p.EstimatorFor(8, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainIteration measures one real-tensor pipeline training
// iteration under the Mario-optimized schedule.
func BenchmarkTrainIteration(b *testing.B) {
	cfg := train.Config{
		Devices: 4, BlocksPerStage: 1, Dim: 16, SeqLen: 8,
		Micros: 8, BatchPerMicro: 2, Seed: 7, LR: 1e-3,
	}
	tr, err := train.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := mario.BuildSchedule("1F1B", 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := mario.Checkpoint(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.RunIteration(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPasses isolates the contribution of each graph-tuner
// pass (and the ZB-H1 split-backward extension) on the Figure-2 pipeline,
// reporting the resulting makespans as custom metrics: the design-choice
// ablation called out in DESIGN.md.
func BenchmarkAblationPasses(b *testing.B) {
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 4})
	if err != nil {
		b.Fatal(err)
	}
	est := cost.Uniform(4, 1, 2, 0.25)
	var tCkpt, tOvlp, tDedup, tFull, tSplit float64
	for i := 0; i < b.N; i++ {
		c := graph.ApplyCheckpoint(s)
		r1, err := sim.Simulate(c, est, sim.Options{NoTimeline: true})
		if err != nil {
			b.Fatal(err)
		}
		graph.OverlapRecompute(c)
		r2, err := sim.Simulate(c, est, sim.Options{NoTimeline: true})
		if err != nil {
			b.Fatal(err)
		}
		graph.RemoveRedundancy(c)
		r3, err := sim.Simulate(c, est, sim.Options{NoTimeline: true})
		if err != nil {
			b.Fatal(err)
		}
		s4, r4, err := graph.Optimize(s, graph.Options{Estimator: est})
		if err != nil {
			b.Fatal(err)
		}
		_, r5, err := graph.SplitBackward(s4, graph.Options{Estimator: est})
		if err != nil {
			b.Fatal(err)
		}
		tCkpt, tOvlp, tDedup, tFull, tSplit = r1.Total, r2.Total, r3.Total, r4.Total, r5.Total
	}
	b.ReportMetric(tCkpt, "t-ckpt")
	b.ReportMetric(tOvlp, "t-overlap")
	b.ReportMetric(tDedup, "t-dedup")
	b.ReportMetric(tFull, "t-prepose")
	b.ReportMetric(tSplit, "t-splitbw")
}

// BenchmarkTuning1024GPU reproduces the paper's large-cluster tuning check
// (§6.7: "we have tested the tuning on 1024-GPU scenario and it only takes
// 1060 ms per iteration with 240 configurations"): a 1024-device space with
// PP up to 64 and DP filling the rest, reporting per-candidate latency.
func BenchmarkTuning1024GPU(b *testing.B) {
	tn := &tuner.Tuner{
		Prof: &profile.Profiler{
			Model: cost.GPT3_13B, HW: cost.H100_80G,
			Spec: profile.DefaultMachine, Devices: 4, Iters: 4,
		},
	}
	space := tuner.Space{
		Devices:      1024,
		GlobalBatch:  2048,
		MicroBatches: []int{1, 2, 4},
		MaxPP:        64,
		DeviceMem:    cost.H100_80G.MemBytes,
		MaxRounds:    1,
	}
	var candidates int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, trace, err := tn.Search(space)
		if err != nil {
			b.Fatal(err)
		}
		candidates = len(trace)
	}
	b.ReportMetric(float64(candidates), "configs")
}

// BenchmarkTunerSearch compares sequential and parallel grid search on a
// large space (a 64-device GPT3-13B grid with four schemes and six
// micro-batch sizes, well over 200 evaluated configurations). NoPrune keeps
// the amount of simulation and build work identical across worker counts; the
// profiler is shared since its output is immutable.
// The results are byte-identical across sub-benchmarks — only the wall time
// differs. The pruned variant runs the same grid with the default
// branch-and-bound search, showing how many simulations the throughput bound
// avoids ("explored" vs "bound-pruned").
func BenchmarkTunerSearch(b *testing.B) {
	prof := &profile.Profiler{
		Model: cost.GPT3_13B, HW: cost.A100_40G,
		Spec: profile.DefaultMachine, Devices: 4, Iters: 4,
	}
	space := tuner.Space{
		Devices:      64,
		GlobalBatch:  512,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave, pipeline.SchemeGPipe},
		MicroBatches: []int{1, 2, 4, 8, 16, 32},
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    1,
		NoPrune:      true,
	}
	run := func(b *testing.B, space tuner.Space, workers int) {
		var explored, pruned int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tn := &tuner.Tuner{Prof: prof, Workers: workers}
			if _, _, err := tn.Search(space); err != nil {
				b.Fatal(err)
			}
			explored, pruned = tn.Stats.Explored, tn.Stats.BoundPruned
		}
		b.ReportMetric(float64(explored), "explored")
		b.ReportMetric(float64(pruned), "bound-pruned")
	}
	par := runtime.GOMAXPROCS(0)
	b.Run("workers=1", func(b *testing.B) { run(b, space, 1) })
	// On one processor the parallel run is the sequential one again (and the
	// testing package would rename it "workers=1#01"); skip the duplicate.
	if par > 1 {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) { run(b, space, par) })
	}
	b.Run(fmt.Sprintf("workers=%d/pruned", par), func(b *testing.B) {
		s := space
		s.NoPrune = false
		run(b, s, par)
	})
}

// BenchmarkTunerSearchBnB contrasts the branch-and-bound search against the
// canonical pruned grid walk on the same 220-configuration GPT3-13B space as
// BenchmarkTunerSearch. Both return the identical argmax (pinned by
// TestBnBExplorationEfficiency); the reported metrics show how much of the
// grid each strategy actually simulates, and builds the schedules it built.
// At GOMAXPROCS > 1 the search is pooled and only the SearchStats columns
// (explored, oom, bound-pruned, mem-pruned) are reported.
func BenchmarkTunerSearchBnB(b *testing.B) {
	prof := &profile.Profiler{
		Model: cost.GPT3_13B, HW: cost.A100_40G,
		Spec: profile.DefaultMachine, Devices: 4, Iters: 4,
	}
	space := tuner.Space{
		Devices:      64,
		GlobalBatch:  512,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave, pipeline.SchemeGPipe},
		MicroBatches: []int{1, 2, 4, 8, 16, 32},
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    1,
	}
	run := func(b *testing.B, space tuner.Space) {
		var st tuner.SearchStats
		m := telemetry.NewSearchMetrics(telemetry.NewRegistry())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tn := &tuner.Tuner{Prof: prof, Workers: runtime.GOMAXPROCS(0), Metrics: m}
			if _, _, err := tn.Search(space); err != nil {
				b.Fatal(err)
			}
			st = tn.Stats
		}
		// The registry's counts include a pool's speculative evaluations,
		// which depend on timing: they are exact only on the sequential walk.
		if runtime.GOMAXPROCS(0) == 1 {
			b.ReportMetric(float64(m.Sims.Value())/float64(b.N), "sims/op")
			b.ReportMetric(float64(m.BuildMisses.Value())/float64(b.N), "builds")
			reportScanVerdicts(b, m)
		}
		b.ReportMetric(float64(st.Explored), "explored")
		b.ReportMetric(float64(st.OOMRejected), "oom")
		b.ReportMetric(float64(st.BoundPruned), "bound-pruned")
		b.ReportMetric(float64(st.MemPruned), "mem-pruned")
	}
	b.Run("bnb", func(b *testing.B) { run(b, space) })
	b.Run("grid", func(b *testing.B) {
		s := space
		s.NoBnB = true
		run(b, s)
	})
}

// BenchmarkOptimizeAPI measures the end-to-end public Optimize call
// (profiling, grid search, graph tuning) at a small scale.
func BenchmarkOptimizeAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := mario.Optimize(mario.Config{
			PipelineScheme:  "1F1B",
			GlobalBatchSize: 16,
			NumDevices:      4,
			MemoryPerDevice: "40G",
			MinPP:           4,
			MicroBatchSizes: []int{1, 2},
		}, mario.Model("LLaMA2-3B"))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeHetero measures one co-optimizing search end to end: the
// planner benchmark's hetero-8 spec (GPT3-13B, 1F1B, 8 devices with one at
// 0.8 speed, auto placement) on the default machine, sequentially. It is the
// one deterministic row that reaches the partitioning/placement subsystem;
// sims/op, the scan verdicts, explored and oom (the explored points the memory
// penalty zeroed) pin what the search simulates, and builds (the schedules it
// built, fewer than the points explored: a point's checkpoint and placement
// siblings share one) what it built.
func BenchmarkOptimizeHetero(b *testing.B) {
	m := telemetry.NewSearchMetrics(telemetry.NewRegistry())
	var explored, oom int
	for i := 0; i < b.N; i++ {
		plan, err := mario.Optimize(mario.Config{
			PipelineScheme:  "V",
			GlobalBatchSize: 32,
			NumDevices:      8,
			MemoryPerDevice: "72G",
			DeviceSpeeds:    []float64{1, 1, 1, 0.8, 1, 1, 1, 1},
			Placement:       "auto",
			Machine:         profile.DefaultMachine,
			Workers:         1,
			Metrics:         m,
		}, mario.Model("GPT3-13B"))
		if err != nil {
			b.Fatal(err)
		}
		explored, oom = plan.SearchStats.Explored, plan.SearchStats.OOMRejected
	}
	b.ReportMetric(float64(m.Sims.Value())/float64(b.N), "sims/op")
	b.ReportMetric(float64(m.BuildMisses.Value())/float64(b.N), "builds")
	reportScanVerdicts(b, m)
	b.ReportMetric(float64(explored), "explored")
	b.ReportMetric(float64(oom), "oom")
}

// reportScanVerdicts reports, per op, how many of the prepose scan's
// single-device candidates were simulated and found illegal and how many were
// simulated and were not. Each costs a simulation, so a candidate generator
// that proposes more of them moves these counts.
func reportScanVerdicts(b *testing.B, m *telemetry.SearchMetrics) {
	b.ReportMetric(float64(m.ScanIllegal.Value())/float64(b.N), "scan-illegal")
	b.ReportMetric(float64(m.ScanSimulated.Value())/float64(b.N), "scan-simulated")
}

// BenchmarkPlanCodec prices the plan JSON codec on the GPT3-1.6B, 8-device,
// Auto plan (the planner benchmark's serve-cold request): what the planning
// service pays once per fresh plan to encode it and every client pays to
// decode it, with the body size alongside since both scale with it.
func BenchmarkPlanCodec(b *testing.B) {
	plan, err := mario.Optimize(mario.Config{
		PipelineScheme:  "Auto",
		GlobalBatchSize: 64,
		NumDevices:      8,
		MemoryPerDevice: "40G",
		Workers:         1,
	}, mario.Model("GPT3-1.6B"))
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(plan)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(plan); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "bytes")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mario.LoadPlan(data); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "bytes")
	})
}

// BenchmarkTelemetryOff prices the disabled-telemetry fast path: the exact
// span and metrics calls an instrumented grid-point evaluation makes, driven
// through a zero Span and a nil *telemetry.SearchMetrics. This is the
// "near zero-cost when off" contract — it must stay at 0 allocs/op.
func BenchmarkTelemetryOff(b *testing.B) {
	var root telemetry.Span
	var m *telemetry.SearchMetrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := root.Child(telemetry.PhasePoint, "0000 X-4-2(mario)")
		bd := p.Child(telemetry.PhaseBuild, "")
		bd.SetInt("stages", 4)
		bd.End()
		g := p.Child(telemetry.PhaseGraph, "")
		g.End()
		s := p.Child(telemetry.PhaseSim, "")
		s.SetFloat("throughput", 12.5)
		s.SetBool("improved", true)
		s.End()
		p.End()
		p.AttachTo(root)
		m.AddSims(1)
		m.AddGraphRounds(1)
	}
}

// BenchmarkTelemetryOn is the enabled-path sibling: the same call shape
// against a live Tracer and registry-backed metrics, so the per-span cost of
// actually tracing is visible next to the off path.
func BenchmarkTelemetryOn(b *testing.B) {
	tr := telemetry.New("benchfingerprint")
	root := tr.Root(telemetry.PhaseOptimize, "")
	m := telemetry.NewSearchMetrics(telemetry.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := tr.Detached(telemetry.PhasePoint, "0000 X-4-2(mario)")
		bd := p.Child(telemetry.PhaseBuild, "")
		bd.SetInt("stages", 4)
		bd.End()
		g := p.Child(telemetry.PhaseGraph, "")
		g.End()
		s := p.Child(telemetry.PhaseSim, "")
		s.SetFloat("throughput", 12.5)
		s.SetBool("improved", true)
		s.End()
		p.End()
		p.Discard() // keep the arena from growing the timed region
		m.AddSims(1)
		m.AddGraphRounds(1)
	}
	b.StopTimer()
	root.End()
}
