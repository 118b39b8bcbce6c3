package cluster

import (
	"math"
	"reflect"
	"testing"

	"mario/internal/cost"
	"mario/internal/fault"
	"mario/internal/pipeline"
	"mario/internal/scheme"
)

// TestSpeedFactorsSlowCompute: a declared 0.8× device stretches its own
// compute samples by exactly 1/0.8 and leaves the other devices untouched.
func TestSpeedFactorsSlowCompute(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	nominal := &Machine{Truth: e, Seed: 11}
	declared := &Machine{Truth: e, Seed: 11, SpeedFactors: []float64{1, 1, 0.8, 1}}
	if slow, base := mustRun(t, declared, s, 1), mustRun(t, nominal, s, 1); slow.Total <= base.Total {
		t.Errorf("0.8x device did not stretch the run: %v vs %v", slow.Total, base.Total)
	}
	base, _, err := nominal.Sample(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := declared.Sample(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	oh := e.LaunchOverhead
	for d := 0; d < 4; d++ {
		want := 1.0
		if d == 2 {
			want = 1 / 0.8
		}
		for k, durs := range base[d] {
			if !isCompute(k.Kind) {
				continue
			}
			got := slow[d][k]
			for i := range durs {
				ratio := (got[i] - oh) / (durs[i] - oh)
				if math.Abs(ratio-want) > 1e-9 {
					t.Fatalf("device %d %v sample %d: stretch %v, want %v", d, k, i, ratio, want)
				}
			}
		}
	}
}

// TestSpeedFactorStacksWithFaultSlowdown is the stacking contract: a static
// 0.5× speed factor and an injected 2× straggler fault on the same device
// compose multiplicatively — every compute instruction stretches by exactly
// (1/0.5)·2 = 4× over the healthy nominal run — and the whole composition
// stays deterministic (pinned under -race by running it twice). A faulted
// duration reads the virtual clock, so the durations come from the event
// stream, not from Sample.
func TestSpeedFactorStacksWithFaultSlowdown(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	const dev = 1
	plan := &fault.Plan{Slowdowns: []fault.Slowdown{{Device: dev, Factor: 2}}}
	// computeDurs runs m and returns dev's compute durations in execution
	// order: how far each compute instruction advanced the device's clock.
	computeDurs := func(m *Machine) (*Report, []float64) {
		m.CollectEvents = true
		rep := mustRun(t, m, s, 1)
		var durs []float64
		for _, ev := range rep.Events {
			if ev.Device == dev && isCompute(ev.Kind) {
				durs = append(durs, ev.End-ev.Start)
			}
		}
		return rep, durs
	}

	_, base := computeDurs(&Machine{Truth: e, Seed: 5})
	_, sp := computeDurs(&Machine{Truth: e, Seed: 5, SpeedFactors: []float64{1, 0.5, 1, 1}})
	_, fa := computeDurs(&Machine{Truth: e, Seed: 5, Faults: plan})
	stacked, st := computeDurs(&Machine{Truth: e, Seed: 5, Faults: plan, SpeedFactors: []float64{1, 0.5, 1, 1}})
	if len(base) == 0 || len(sp) != len(base) || len(fa) != len(base) || len(st) != len(base) {
		t.Fatalf("compute instruction counts differ: %d, %d, %d, %d", len(base), len(sp), len(fa), len(st))
	}

	oh := e.LaunchOverhead
	for i, d0 := range base {
		w := d0 - oh
		if r := (sp[i] - oh) / w; math.Abs(r-2) > 1e-9 {
			t.Fatalf("instruction %d: speed-only stretch %v, want 2", i, r)
		}
		if r := (fa[i] - oh) / w; math.Abs(r-2) > 1e-9 {
			t.Fatalf("instruction %d: fault-only stretch %v, want 2", i, r)
		}
		// The fault multiplies the already-slowed duration (overhead
		// included), exactly as a throttled chip would be measured.
		if want := (oh + w*2) * 2; math.Abs(st[i]-want) > 1e-9 {
			t.Fatalf("instruction %d: stacked %v, want %v", i, st[i], want)
		}
	}
	if stacked.FaultSlowed == 0 {
		t.Error("stacked run reports no fault-slowed instructions")
	}

	again, _ := computeDurs(&Machine{Truth: e, Seed: 5, Faults: plan, SpeedFactors: []float64{1, 0.5, 1, 1}})
	stacked.WatchdogResets, again.WatchdogResets = 0, 0
	if !reflect.DeepEqual(stacked, again) {
		t.Error("stacked speed+fault run is not deterministic across repeats")
	}
}

func isCompute(k pipeline.Kind) bool {
	switch k {
	case pipeline.Forward, pipeline.CkptForward, pipeline.Backward, pipeline.Recompute,
		pipeline.BackwardInput, pipeline.BackwardWeight,
		pipeline.AllReduce, pipeline.OptimizerStep:
		return true
	}
	return false
}
