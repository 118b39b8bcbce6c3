package sim

import (
	"math"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
)

func build(t *testing.T, s pipeline.Scheme, cfg scheme.Config) *pipeline.Schedule {
	t.Helper()
	sched, err := scheme.Build(s, cfg)
	if err != nil {
		t.Fatalf("Build(%s, %+v): %v", s, cfg, err)
	}
	return sched
}

func simulate(t *testing.T, s *pipeline.Schedule, e *cost.Estimator, opt Options) *Result {
	t.Helper()
	r, err := Simulate(s, e, opt)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return r
}

// Test1F1BIdealMakespan checks the textbook 1F1B makespan with unit costs
// (F = 1, B = 2, free comm): total = (N + D - 1) * (F + B). For D=4, N=4
// this is the 21t baseline of the paper's Figure 2.
func Test1F1BIdealMakespan(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{4, 4}, {4, 8}, {8, 8}, {8, 16}, {2, 2}} {
		s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: tc.d, Micros: tc.n})
		e := cost.Uniform(tc.d, 1, 2, 0.25)
		r := simulate(t, s, e, Options{})
		want := float64((tc.n + tc.d - 1) * 3)
		if math.Abs(r.Total-want) > 1e-9 {
			t.Errorf("D=%d N=%d: makespan = %v, want %v", tc.d, tc.n, r.Total, want)
		}
	}
}

// TestGPipeIdealMakespan checks GPipe's fill-drain makespan with unit costs:
// same critical path as 1F1B, (N + D - 1) * (F + B).
func TestGPipeIdealMakespan(t *testing.T) {
	s := build(t, pipeline.SchemeGPipe, scheme.Config{Devices: 4, Micros: 4})
	e := cost.Uniform(4, 1, 2, 0.25)
	r := simulate(t, s, e, Options{})
	if want := 21.0; math.Abs(r.Total-want) > 1e-9 {
		t.Errorf("GPipe makespan = %v, want %v", r.Total, want)
	}
}

// TestTimelineMonotonic checks that each device's records are
// non-overlapping and ordered on every scheme, and that the timeline is
// device-major with one record per instruction.
func TestTimelineMonotonic(t *testing.T) {
	for _, tc := range []struct {
		s   pipeline.Scheme
		cfg scheme.Config
	}{
		{pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeGPipe, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 8}},
		{pipeline.SchemeInterleave, scheme.Config{Devices: 4, Micros: 8, Chunks: 2}},
	} {
		sch := build(t, tc.s, tc.cfg)
		e := cost.Uniform(sch.NumStages(), 1, 2, 0.25)
		r := simulate(t, sch, e, Options{})
		k := 0
		for d, list := range sch.Lists {
			last := 0.0
			for i, in := range list {
				rec := r.Timeline[k]
				k++
				if rec.Device != d || rec.Instr != in {
					t.Fatalf("%s: record %d is dev%d %v, want dev%d[%d] %v", tc.s, k-1, rec.Device, rec.Instr, d, i, in)
				}
				if rec.Start < last-1e-9 {
					t.Errorf("%s dev%d: record %v starts at %v before previous end %v", tc.s, d, rec.Instr, rec.Start, last)
				}
				if rec.End < rec.Start {
					t.Errorf("%s dev%d: record %v ends before it starts", tc.s, d, rec.Instr)
				}
				last = rec.End
			}
		}
		if k != len(r.Timeline) {
			t.Errorf("%s: %d records for %d instructions", tc.s, len(r.Timeline), k)
		}
	}
}

// TestChimeraFasterThan1F1B: with N = D, Chimera's bidirectional overlap
// beats 1F1B's makespan (its headline property).
func TestChimeraFasterThan1F1B(t *testing.T) {
	const d, n = 8, 8
	v := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	x := build(t, pipeline.SchemeChimera, scheme.Config{Devices: d, Micros: n})
	e := cost.Uniform(d, 1, 2, 0.25)
	rv := simulate(t, v, e, Options{})
	rx := simulate(t, x, e, Options{})
	if rx.Total >= rv.Total {
		t.Errorf("Chimera makespan %v not better than 1F1B %v at N=D", rx.Total, rv.Total)
	}
}

// TestMemoryImbalance1F1B: the first device holds ~D on-the-fly activation
// replicas and the last exactly one (§1: "the activation of the first device
// can be 16 times larger than that on the last device").
func TestMemoryImbalance1F1B(t *testing.T) {
	const d, n = 8, 16
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	e := cost.Uniform(d, 1, 2, 0.25)
	r := simulate(t, s, e, Options{})
	if got, want := r.PeakMem[0], float64(d); math.Abs(got-want) > 1e-9 {
		t.Errorf("first device peak = %v activation replicas, want %v", got, want)
	}
	if got, want := r.PeakMem[d-1], 1.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("last device peak = %v activation replicas, want %v", got, want)
	}
}

// TestOOMFlag checks that the memory limit marks over-budget devices.
func TestOOMFlag(t *testing.T) {
	const d, n = 4, 8
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	e := cost.Uniform(d, 1, 2, 0.25)
	r := simulate(t, s, e, Options{MemLimit: 2.5})
	if !r.OOM {
		t.Fatal("expected OOM with limit below first-device peak")
	}
	if len(r.OOMDevices) == 0 || r.OOMDevices[0] != 0 {
		t.Fatalf("OOMDevices = %v, want leading devices", r.OOMDevices)
	}
	r = simulate(t, s, e, Options{MemLimit: 100})
	if r.OOM {
		t.Fatal("unexpected OOM with generous limit")
	}
}

// TestThroughputScalesWithDP: doubling DP doubles samples per second minus
// the (here zero-cost) all-reduce.
func TestThroughputScalesWithDP(t *testing.T) {
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	r1 := simulate(t, s, e, Options{DP: 1})
	r2 := simulate(t, s, e, Options{DP: 2})
	if r2.SamplesPerSec <= r1.SamplesPerSec {
		t.Errorf("DP=2 throughput %v not above DP=1 %v", r2.SamplesPerSec, r1.SamplesPerSec)
	}
}

// TestBubbleRatio1F1B: the classic 1F1B bubble fraction on device 0 is
// (D-1)/(N+D-1) with uniform stages.
func TestBubbleRatio1F1B(t *testing.T) {
	const d, n = 4, 4
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: n})
	e := cost.Uniform(d, 1, 2, 0.25)
	r := simulate(t, s, e, Options{})
	want := float64(d-1) / float64(n+d-1)
	if got := r.BubbleRatio(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("bubble ratio = %v, want %v", got, want)
	}
}
