package cluster

import (
	"errors"
	"math"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/viz"
)

func machine(e *cost.Estimator) *Machine {
	return &Machine{Truth: e, Seed: 42}
}

func mustRun(t *testing.T, m *Machine, s *pipeline.Schedule, iters int) *Report {
	t.Helper()
	r, err := m.Run(s, iters)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func buildSched(t *testing.T, sch pipeline.Scheme, cfg scheme.Config) *pipeline.Schedule {
	t.Helper()
	s, err := scheme.Build(sch, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// TestClusterMatchesSimulatorNoiseless: with zero noise and zero extra
// overhead, the emulated execution and the DP simulator agree for every
// scheme, record by record: the simulator's timeline and the emulator's
// iteration-0 events are one record stream — identity, peer, payload, start,
// end, receive wait and memory bit-equal at every position — and render to
// the same chart. Each scheme also runs with a declared straggler, the
// estimator's DeviceSpeed slowing device 2 to 1/1.35 in both executors: the
// model prices a straggler exactly, with no second mechanism.
//
// The agreement depends on cost.Uniform's zero launch overhead. The two
// executors end a receive whose message is late differently: the emulator at
// max(start, arrive) + overhead, the simulator (and difftest.Reference) at
// max(start + overhead, arrive). With a non-zero overhead the streams part
// (ROADMAP item 14a).
func TestClusterMatchesSimulatorNoiseless(t *testing.T) {
	straggler := []float64{1, 1, 1 / 1.35, 1}
	for _, tc := range []struct {
		sch pipeline.Scheme
		cfg scheme.Config
	}{
		{pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeGPipe, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeInterleave, scheme.Config{Devices: 4, Micros: 8, Chunks: 2}},
		{pipeline.SchemeZBH1, scheme.Config{Devices: 4, Micros: 8}},
	} {
		s := buildSched(t, tc.sch, tc.cfg)
		for _, speeds := range [][]float64{nil, straggler} {
			e := cost.Uniform(s.NumStages(), 1, 2, 0.25)
			e.DeviceSpeed = speeds
			want, err := sim.Simulate(s, e, sim.Options{})
			if err != nil {
				t.Fatalf("%s speeds %v: sim: %v", tc.sch, speeds, err)
			}
			m := machine(e)
			m.CollectEvents = true
			got := mustRun(t, m, s, 1)
			if math.Abs(got.Total-want.Total) > 1e-9 {
				t.Errorf("%s speeds %v: cluster makespan %v != simulator %v", tc.sch, speeds, got.Total, want.Total)
			}
			if len(got.Events) != len(want.Timeline) {
				t.Fatalf("%s speeds %v: %d events, %d simulated records", tc.sch, speeds, len(got.Events), len(want.Timeline))
			}
			for k, rec := range want.Timeline {
				if ev := got.Events[k]; ev != rec {
					t.Errorf("%s speeds %v: position %d: measured %+v, simulated %+v", tc.sch, speeds, k, ev, rec)
					break
				}
			}
			if a, b := viz.ASCII(got.Events, 0), viz.ASCII(want.Timeline, 0); a != b {
				t.Errorf("%s speeds %v: the measured chart differs from the simulated one:\n%s\nvs\n%s", tc.sch, speeds, a, b)
			}
		}
	}
}

// TestIterationsScaleLinearly: k iterations take k times one iteration when
// the pipeline flushes between iterations.
func TestIterationsScaleLinearly(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 4})
	e := cost.Uniform(4, 1, 2, 0.25)
	r1 := mustRun(t, machine(e), s, 1)
	r3 := mustRun(t, machine(e), s, 3)
	if math.Abs(r3.IterTime-r1.IterTime) > r1.IterTime*0.35 {
		t.Errorf("per-iteration time drifted: 1 iter %v, 3 iters %v", r1.IterTime, r3.IterTime)
	}
}

// TestNoiseIsDeterministic: the same seed reproduces bit-identical results;
// different seeds differ.
func TestNoiseIsDeterministic(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	m1 := &Machine{Truth: e, Noise: 0.05, Seed: 7}
	m2 := &Machine{Truth: e, Noise: 0.05, Seed: 7}
	m3 := &Machine{Truth: e, Noise: 0.05, Seed: 8}
	a := mustRun(t, m1, s, 2)
	b := mustRun(t, m2, s, 2)
	c := mustRun(t, m3, s, 2)
	if a.Total != b.Total {
		t.Errorf("same seed, different totals: %v vs %v", a.Total, b.Total)
	}
	if a.Total == c.Total {
		t.Errorf("different seeds produced identical totals %v", a.Total)
	}
}

// TestExtraOverheadSlowsRuns: unmodeled overhead makes measured runs slower
// than the noiseless baseline (the mechanism behind the simulator's
// throughput overestimate in Fig. 10).
func TestExtraOverheadSlowsRuns(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	base := mustRun(t, machine(e), s, 1)
	slow := mustRun(t, &Machine{Truth: e, ExtraOverhead: 0.05, Seed: 42}, s, 1)
	if slow.Total <= base.Total {
		t.Errorf("extra overhead did not slow the run: %v vs %v", slow.Total, base.Total)
	}
}

// TestDeadlockDetection: an intentionally crossed schedule (two devices that
// both receive before sending) is ErrDeadlock instead of a hang.
func TestDeadlockDetection(t *testing.T) {
	pl := pipeline.Linear(2)
	s := pipeline.NewSchedule(pipeline.Scheme1F1B, pipeline.Resolve(pl, 1), [][]pipeline.Instr{
		{
			{Kind: pipeline.RecvGrad, Micro: 0, Stage: 0},
			{Kind: pipeline.Forward, Micro: 0, Stage: 0},
			{Kind: pipeline.SendAct, Micro: 0, Stage: 0},
			{Kind: pipeline.Backward, Micro: 0, Stage: 0},
		},
		{
			{Kind: pipeline.RecvAct, Micro: 0, Stage: 1},
			{Kind: pipeline.Forward, Micro: 0, Stage: 1},
			{Kind: pipeline.Backward, Micro: 0, Stage: 1},
			{Kind: pipeline.SendGrad, Micro: 0, Stage: 1},
		},
	})
	// Device 0 receives the gradient before sending the activation device 1
	// needs to produce it: a true cyclic wait.
	e := cost.Uniform(2, 1, 2, 0.25)
	m := &Machine{Truth: e, Seed: 1}
	_, err := m.Run(s, 1)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestMismatchDetection: reordering two sends on the same link without
// reordering the receives is caught.
func TestMismatchDetection(t *testing.T) {
	s := buildSched(t, pipeline.SchemeGPipe, scheme.Config{Devices: 2, Micros: 2})
	// Swap the first two SendActs on device 0.
	list := s.Lists[0]
	var saIdx []int
	for i, in := range list {
		if in.Kind == pipeline.SendAct {
			saIdx = append(saIdx, i)
		}
	}
	if len(saIdx) < 2 {
		t.Fatal("expected two sends on device 0")
	}
	list[saIdx[0]].Micro, list[saIdx[1]].Micro = list[saIdx[1]].Micro, list[saIdx[0]].Micro
	e := cost.Uniform(2, 1, 2, 0.25)
	m := &Machine{Truth: e, Seed: 1}
	if _, err := m.Run(s, 1); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
}

// TestSamplesCollected: profiling samples cover forward and backward on
// every stage with one entry per (iteration × instruction).
func TestSamplesCollected(t *testing.T) {
	const iters = 3
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 4})
	e := cost.Uniform(4, 1, 2, 0.25)
	durs, peak, err := machine(e).Sample(s, iters)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if len(durs) != 4 || len(peak) != 4 {
		t.Fatalf("per-device samples missing: %d devices of durations, %d of memory", len(durs), len(peak))
	}
	// 1F1B places stage st on device st.
	for st := 0; st < 4; st++ {
		for _, k := range []pipeline.Kind{pipeline.Forward, pipeline.Backward} {
			if n := len(durs[st][SampleKey{Kind: k, Stage: st}]); n != 4*iters {
				t.Errorf("stage %d: %d %s samples, want %d", st, n, k, 4*iters)
			}
		}
	}
}

// TestSampleMatchesRun: Sample draws exactly what Run measures. On every
// device of four schemes, with every source of jitter and speed variation
// on, the sequence of compute durations Sample draws is the sequence by which
// a Run advanced the device's clock, in order, and the peak memory is Run's.
func TestSampleMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		sch pipeline.Scheme
		cfg scheme.Config
	}{
		{pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeInterleave, scheme.Config{Devices: 4, Micros: 8, Chunks: 2}},
		{pipeline.SchemeZBH1, scheme.Config{Devices: 4, Micros: 8}},
	} {
		const iters = 3
		s := buildSched(t, tc.sch, tc.cfg)
		truth := cost.Uniform(s.NumStages(), 1, 2, 0.25)
		truth.DeviceSpeed = []float64{1, 0.8, 1.25, 0.9}
		m := &Machine{Truth: truth, Noise: 0.05, Hetero: 0.05, ExtraOverhead: 0.01, MemSlack: 1.1, Seed: 17, DP: 2}
		durs, peak, err := m.Sample(s, iters)
		if err != nil {
			t.Fatalf("%s: Sample: %v", tc.sch, err)
		}
		m.CollectEvents = true
		rep := mustRun(t, m, s, iters)
		for d := range peak {
			if peak[d] != rep.PeakMem[d] {
				t.Errorf("%s dev%d: sampled peak memory %v, run measured %v", tc.sch, d, peak[d], rep.PeakMem[d])
			}
		}
		ran := make([]map[SampleKey][]float64, len(durs))
		for d := range ran {
			ran[d] = make(map[SampleKey][]float64)
		}
		for _, ev := range rep.Events {
			if !isCompute(ev.Kind) {
				continue
			}
			k := SampleKey{Kind: ev.Kind, Stage: int(ev.Stage)}
			if ev.Micro == pipeline.NoMicro {
				k.Stage = -1
			}
			ran[ev.Device][k] = append(ran[ev.Device][k], ev.End-ev.Start)
		}
		for d := range durs {
			n := 0
			for k, got := range durs[d] {
				if !isCompute(k.Kind) {
					continue
				}
				n++
				want := ran[d][k]
				if len(got) != len(want) {
					t.Fatalf("%s dev%d %v: %d samples, run executed %d", tc.sch, d, k, len(got), len(want))
				}
				for i := range got {
					if math.Abs(got[i]-want[i]) > 1e-12*want[i] {
						t.Fatalf("%s dev%d %v #%d: sampled %v, run advanced the clock by %v", tc.sch, d, k, i, got[i], want[i])
					}
				}
			}
			if n != len(ran[d]) {
				t.Errorf("%s dev%d: %d compute classes sampled, run executed %d", tc.sch, d, n, len(ran[d]))
			}
		}
	}
}

// TestMemSlackRaisesMeasuredMemory: fragmentation slack inflates measured
// peaks above the model's prediction.
func TestMemSlackRaisesMeasuredMemory(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	predicted := sim.PeakMemory(s, e)
	m := &Machine{Truth: e, MemSlack: 1.10, Seed: 3}
	r := mustRun(t, m, s, 1)
	for d := range predicted {
		if r.PeakMem[d] <= predicted[d]*1.05 {
			t.Errorf("dev%d measured %v not ≥ 5%% above predicted %v", d, r.PeakMem[d], predicted[d])
		}
	}
}

// TestRunRejectsBadInput covers the argument validation paths.
func TestRunRejectsBadInput(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 2, Micros: 2})
	e := cost.Uniform(2, 1, 2, 0.25)
	if _, err := (&Machine{Truth: e}).Run(s, 0); err == nil {
		t.Error("iters=0 accepted")
	}
	if _, err := (&Machine{}).Run(s, 1); err == nil {
		t.Error("nil truth accepted")
	}
	wrong := cost.Uniform(3, 1, 2, 0.25)
	if _, err := (&Machine{Truth: wrong}).Run(s, 1); err == nil {
		t.Error("stage mismatch accepted")
	}
	for _, m := range []*Machine{{}, {Truth: wrong}} {
		if _, _, err := m.Sample(s, 1); err == nil {
			t.Errorf("Sample accepted a machine Run refuses: %+v", m)
		}
	}
	if _, _, err := (&Machine{Truth: e}).Sample(s, 0); err == nil {
		t.Error("Sample accepted iters=0")
	}
}
