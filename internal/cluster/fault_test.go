package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mario/internal/cost"
	"mario/internal/fault"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/scheme"
)

// TestEmptyFaultPlanIsFree: a nil or empty plan must not change the report.
func TestEmptyFaultPlanIsFree(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	healthy := mustRun(t, &Machine{Truth: e, Noise: 0.05, Seed: 7}, s, 2)
	empty := mustRun(t, &Machine{Truth: e, Noise: 0.05, Seed: 7, Faults: &fault.Plan{Name: "noop"}}, s, 2)
	healthy.WatchdogResets, empty.WatchdogResets = 0, 0
	if !reflect.DeepEqual(healthy, empty) {
		t.Errorf("empty fault plan changed the report:\nhealthy: %+v\nempty:   %+v", healthy, empty)
	}
}

// TestSlowdownStretchesRun: a persistent straggler makes the run measurably
// slower and shows up in the fault counters and the recorded events.
func TestSlowdownStretchesRun(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	base := mustRun(t, &Machine{Truth: e, Seed: 7}, s, 1)
	m := &Machine{Truth: e, Seed: 7, CollectEvents: true,
		Faults: &fault.Plan{Slowdowns: []fault.Slowdown{{Device: 1, Factor: 2}}}}
	slow := mustRun(t, m, s, 1)
	if slow.Total <= base.Total {
		t.Errorf("straggler did not slow the run: %v vs %v", slow.Total, base.Total)
	}
	if slow.FaultSlowed == 0 {
		t.Error("FaultSlowed counter is zero under a persistent slowdown")
	}
	marked := 0
	for _, ev := range slow.Events {
		if ev.FaultSlow != 0 {
			if ev.Device != 1 {
				t.Errorf("slowdown annotation on device %d, plan targets device 1", ev.Device)
			}
			if ev.FaultSlow != 2 {
				t.Errorf("event slow factor %v, want 2", ev.FaultSlow)
			}
			marked++
		}
	}
	if marked != slow.FaultSlowed {
		t.Errorf("%d annotated events vs FaultSlowed %d", marked, slow.FaultSlowed)
	}
}

// TestStallAddsVirtualTime: a virtual stall window extends the makespan by at
// least its duration and is accounted in FaultStall.
func TestStallAddsVirtualTime(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 4})
	e := cost.Uniform(4, 1, 2, 0.25)
	base := mustRun(t, &Machine{Truth: e, Seed: 3}, s, 1)
	const stall = 5.0
	m := &Machine{Truth: e, Seed: 3,
		Faults: &fault.Plan{Stalls: []fault.Stall{{Device: 0, At: 0, Duration: stall}}}}
	rep := mustRun(t, m, s, 1)
	if rep.FaultStall != stall {
		t.Errorf("FaultStall = %v, want %v", rep.FaultStall, stall)
	}
	if rep.Total < base.Total+stall*0.9 {
		t.Errorf("stall did not extend the makespan: %v vs healthy %v", rep.Total, base.Total)
	}
}

// TestRealDeadlockStillCaughtUnderFaults: with an active fault plan attached,
// a genuine cyclic wait is still a deadlock.
func TestRealDeadlockStillCaughtUnderFaults(t *testing.T) {
	pl := pipeline.NewLinearPlacement(2)
	s := &pipeline.Schedule{
		Scheme:    pipeline.Scheme1F1B,
		Placement: pl,
		Micros:    1,
		Lists: [][]pipeline.Instr{
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
		},
	}
	e := cost.Uniform(2, 1, 2, 0.25)
	m := &Machine{Truth: e, Seed: 1, Watchdog: 200 * time.Millisecond,
		Faults: &fault.Plan{Slowdowns: []fault.Slowdown{{Device: 0, Factor: 1.5}}}}
	_, err := m.Run(s, 1)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestLinkFailurePropagates: exhausting the retry budget surfaces
// fault.ErrLinkFailure as the run error.
func TestLinkFailurePropagates(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 2, Micros: 2})
	e := cost.Uniform(2, 1, 2, 0.25)
	m := &Machine{Truth: e, Seed: 1, Watchdog: time.Second,
		Faults: &fault.Plan{Seed: 1, MaxRetries: 1,
			Links: []fault.LinkFault{{From: -1, To: -1, DropProb: 0.999999999}}}}
	_, err := m.Run(s, 1)
	if !errors.Is(err, fault.ErrLinkFailure) {
		t.Fatalf("err = %v, want fault.ErrLinkFailure", err)
	}
}

// faultedTrace runs a faulted, observed run and returns the JSONL bytes of
// its event stream.
func faultedTrace(t *testing.T, seed uint64) []byte {
	t.Helper()
	s := buildSched(t, pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(s.NumStages(), 1, 2, 0.25)
	m := &Machine{Truth: e, Noise: 0.05, Seed: 11, CollectEvents: true,
		Faults: &fault.Plan{
			Seed:      seed,
			Slowdowns: []fault.Slowdown{{Device: 2, Factor: 1.4, Start: 0, End: 0.5}},
			Links:     []fault.LinkFault{{From: -1, To: -1, Channel: fault.ChannelAct, DropProb: 0.05, ExtraLatency: 100e-6}},
			Stalls:    []fault.Stall{{Device: 0, At: 0.01, Duration: 0.02}},
		}}
	rep, err := m.Run(s, 2)
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, rep.Events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultedTraceDeterministic: identical seed + plan ⇒ byte-identical
// measured JSONL traces, including across GOMAXPROCS settings (the drop
// decisions must not depend on goroutine interleaving).
func TestFaultedTraceDeterministic(t *testing.T) {
	want := faultedTrace(t, 23)
	if !bytes.Contains(want, []byte("fault_")) {
		t.Fatal("trace carries no fault annotations; the plan did not bite")
	}
	for i := 0; i < 3; i++ {
		if got := faultedTrace(t, 23); !bytes.Equal(got, want) {
			t.Fatalf("repeat %d: faulted trace differs", i)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := faultedTrace(t, 23); !bytes.Equal(got, want) {
		t.Fatal("faulted trace differs under GOMAXPROCS=1")
	}
	if got := faultedTrace(t, 24); bytes.Equal(got, want) {
		t.Error("different fault seed produced an identical trace")
	}
}
