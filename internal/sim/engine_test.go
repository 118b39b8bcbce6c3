package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
)

// assertSameOutcome simulates s on the (possibly warm) engine and on the
// package-level Simulate and requires bit-identical results — including
// identical error strings on failure paths.
func assertSameOutcome(t *testing.T, name string, eng *Simulator, s *pipeline.Schedule, e *cost.Estimator, opt Options) {
	t.Helper()
	want, wantErr := Simulate(s, e, opt)
	got, gotErr := eng.Simulate(s, e, opt)
	if (wantErr == nil) != (gotErr == nil) ||
		(wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error mismatch: fresh=%v engine=%v", name, wantErr, gotErr)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: engine result differs from fresh Simulate\nfresh:  %+v\nengine: %+v", name, want, got)
	}
}

// TestSimulatorMatchesSimulate runs one shared engine across the full
// scheme × options matrix — interleaved, so every call meets buffers sized and
// filled by another schedule — and requires bit-identical output to a fresh
// package-level Simulate each time.
func TestSimulatorMatchesSimulate(t *testing.T) {
	type sc struct {
		name string
		s    *pipeline.Schedule
		e    *cost.Estimator
	}
	var scheds []sc
	add := func(name string, sch pipeline.Scheme, cfg scheme.Config, stages int) {
		scheds = append(scheds, sc{name: name, s: build(t, sch, cfg), e: cost.Uniform(stages, 1, 2, 0.25)})
	}
	add("gpipe", pipeline.SchemeGPipe, scheme.Config{Devices: 4, Micros: 6}, 4)
	add("1f1b", pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8}, 4)
	add("chimera", pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 4}, 4)
	add("interleave", pipeline.SchemeInterleave, scheme.Config{Devices: 4, Micros: 8, Chunks: 2}, 8)

	opts := []struct {
		name string
		opt  Options
	}{
		{"default", Options{}},
		{"notimeline", Options{NoTimeline: true}},
		{"dp4", Options{DP: 4}},
		{"oom", Options{MemLimit: 1}}, // absurdly small: every device OOMs
	}

	eng := &Simulator{}
	// Two passes so the second visit of every (schedule, options) pair runs
	// on warm buffers last touched by a different schedule.
	for pass := 0; pass < 2; pass++ {
		for _, tc := range scheds {
			for _, o := range opts {
				name := fmt.Sprintf("pass%d/%s/%s", pass, tc.name, o.name)
				assertSameOutcome(t, name, eng, tc.s, tc.e, o.opt)
			}
		}
	}
}

// TestSimulatorIncrementalEdits drives one engine over a chain of
// copy-on-write candidates — each sharing all but one list with its parent —
// alternating parent and child, and requires every outcome (including the
// error outcomes that in-list reorderings can produce) to match a fresh
// Simulate. This is the graph tuner's exact access pattern.
func TestSimulatorIncrementalEdits(t *testing.T) {
	parent := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	eng := &Simulator{}
	opt := Options{NoTimeline: true}

	assertSameOutcome(t, "parent", eng, parent, e, opt)
	for d := 0; d < parent.NumDevices(); d++ {
		c := parent.Clone()
		list := c.MutableList(d)
		// Swap the first two compute instructions of the device; depending
		// on the device this yields a different-but-legal schedule or a
		// comm-order error — both must match the fresh simulator.
		swapped := false
		for i := 0; i+1 < len(list) && !swapped; i++ {
			if list[i].Kind.IsCompute() && list[i+1].Kind.IsCompute() {
				list[i], list[i+1] = list[i+1], list[i]
				swapped = true
			}
		}
		assertSameOutcome(t, fmt.Sprintf("child-%d", d), eng, c, e, opt)
		// Re-simulating the parent right after puts the edited device's
		// list back.
		assertSameOutcome(t, fmt.Sprintf("parent-after-%d", d), eng, parent, e, opt)
	}
}

// TestSimulatorErrorPathsMatch pins the two hand-built failure modes — a
// receive cycle (deadlock) and a send/recv reorder (comm mismatch) — and
// requires the engine to report byte-identical errors, then to recover on the
// next valid schedule.
func TestSimulatorErrorPathsMatch(t *testing.T) {
	e := cost.Uniform(2, 1, 2, 0.25)
	eng := &Simulator{}

	// Deadlock: each device receives before it sends what the other waits
	// for — a circular wait no eager send can break.
	dead := &pipeline.Schedule{
		Scheme:    pipeline.Scheme1F1B,
		Placement: pipeline.NewLinearPlacement(2),
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
	assertSameOutcome(t, "deadlock", eng, dead, e, Options{})
	if _, err := eng.Simulate(dead, e, Options{}); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("receive cycle: err = %v, want ErrDeadlock", err)
	}

	// Comm mismatch: dev0 sends micro 0 then 1, dev1
	// receives micro 1 then 0.
	mism := &pipeline.Schedule{
		Scheme:    pipeline.Scheme1F1B,
		Placement: pipeline.NewLinearPlacement(2),
		Micros:    2,
		Lists: [][]pipeline.Instr{
			{
				{Kind: pipeline.Forward, Micro: 0, Stage: 0},
				{Kind: pipeline.SendAct, Micro: 0, Stage: 0},
				{Kind: pipeline.Forward, Micro: 1, Stage: 0},
				{Kind: pipeline.SendAct, Micro: 1, Stage: 0},
			},
			{
				{Kind: pipeline.RecvAct, Micro: 1, Stage: 1},
				{Kind: pipeline.Forward, Micro: 1, Stage: 1},
				{Kind: pipeline.RecvAct, Micro: 0, Stage: 1},
				{Kind: pipeline.Forward, Micro: 0, Stage: 1},
			},
		},
	}
	assertSameOutcome(t, "mismatch", eng, mism, e, Options{})

	// Transfers with no partner. Each row's error text is pinned as it was
	// when matches were resolved by hashing every MatchKey: the culprit is
	// the first unmatched instruction, device-major in list order.
	type I = pipeline.Instr
	const (
		fw = pipeline.Forward
		sa = pipeline.SendAct
		ra = pipeline.RecvAct
	)
	for _, tc := range []struct {
		name   string
		pl     pipeline.Placement
		micros int
		lists  [][]I
		want   string
	}{
		{"send whose receive is missing", pipeline.NewLinearPlacement(2), 1, [][]I{
			{{Kind: fw, Stage: 0}, {Kind: sa, Stage: 0}},
			{{Kind: fw, Stage: 1}},
		}, "sim: SA0^0 on device 0 has no matching instruction"},
		{"last-stage send", pipeline.NewLinearPlacement(2), 1, [][]I{
			{{Kind: fw, Stage: 0}, {Kind: sa, Stage: 0}},
			{{Kind: ra, Stage: 1}, {Kind: fw, Stage: 1}, {Kind: sa, Stage: 1}},
		}, "sim: SA0^0 on device 1 has no matching instruction"},
		{"micro out of range", pipeline.NewLinearPlacement(2), 1, [][]I{
			{{Kind: fw, Micro: 1, Stage: 0}, {Kind: sa, Micro: 1, Stage: 0}},
			{{Kind: ra, Micro: 1, Stage: 1}, {Kind: fw, Micro: 1, Stage: 1}},
		}, "sim: SA1^0 on device 0 has no matching instruction"},
		// Stage 0's chunk is part 0. The send of part 1 still finds the
		// receive, but the receive does not find it.
		{"interleaved send of the wrong part", pipeline.NewInterleavedPlacement(2, 2), 1, [][]I{
			{{Kind: fw, Stage: 0}, {Kind: sa, Part: 1, Stage: 0}},
			{{Kind: ra, Stage: 1}, {Kind: fw, Stage: 1}},
		}, "sim: RA0^0 on device 1 has no matching instruction"},
	} {
		s := &pipeline.Schedule{Scheme: pipeline.Scheme1F1B, Placement: tc.pl, Micros: tc.micros, Lists: tc.lists}
		e := cost.Uniform(tc.pl.NumStages(), 1, 2, 0.25)
		assertSameOutcome(t, tc.name, eng, s, e, Options{})
		if _, err := eng.Simulate(s, e, Options{}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// After an error the engine must rebuild cleanly.
	good := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 2, Micros: 4})
	assertSameOutcome(t, "recovery", eng, good, e, Options{})
}

// TestSimulatorSteadyStateAllocs proves the tentpole's O(1) claim: once
// warm, re-simulating the same schedule allocates only the returned Result
// (one struct + two per-device slices), independent of schedule size.
func TestSimulatorSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		d, n int
	}{
		{"small", 4, 8},
		{"large", 8, 32},
	} {
		s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: tc.d, Micros: tc.n})
		e := cost.Uniform(tc.d, 1, 2, 0.25)
		eng := &Simulator{}
		opt := Options{NoTimeline: true}
		if _, err := eng.Simulate(s, e, opt); err != nil {
			t.Fatalf("%s: warmup: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := eng.Simulate(s, e, opt); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		// 3 expected (Result + PeakMem + ComputeBusy); leave headroom for
		// runtime noise but stay far below anything size-dependent.
		if allocs > 6 {
			t.Errorf("%s: steady-state Simulate allocates %.0f objects/run, want ≤ 6", tc.name, allocs)
		}
	}
}

// TestSimulatorGrowthAllocs: every buffer an engine keeps is one backing,
// carved per call, so the call that grows a warm engine to a bigger schedule
// allocates the same number of objects whatever the number of devices and
// links, and the next call is back at the steady state.
func TestSimulatorGrowthAllocs(t *testing.T) {
	opt := Options{NoTimeline: true}
	simulate := func(eng *Simulator, devices int) {
		t.Helper()
		s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: devices, Micros: 2 * devices})
		if _, err := eng.Simulate(s, cost.Uniform(devices, 1, 2, 0.25), opt); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// growth returns the objects the 2 → devices growth call allocates, the
	// fewest of three tries so a stray runtime allocation cannot count.
	growth := func(devices int) uint64 {
		s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: devices, Micros: 2 * devices})
		e := cost.Uniform(devices, 1, 2, 0.25)
		fewest := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			eng := &Simulator{}
			simulate(eng, 2)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := eng.Simulate(s, e, opt)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	// The Result (three objects), the engine's seven buffers (devices,
	// metadata, duration table, communication index, links, FIFO backing,
	// ready ring) and the memory walk's three cell maps.
	want := growth(32)
	if want > 13 {
		t.Errorf("growing 2 → 32 devices allocates %d objects, want ≤ 13", want)
	}
	for _, devices := range []int{4, 8, 16} {
		if got := growth(devices); got != want {
			t.Errorf("growing 2 → %d devices allocates %d objects, 2 → 32 allocates %d: growth depends on size", devices, got, want)
		}
	}

	eng := &Simulator{}
	simulate(eng, 2)
	simulate(eng, 32)
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 32, Micros: 64})
	e := cost.Uniform(32, 1, 2, 0.25)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.Simulate(s, e, opt); err != nil {
			t.Fatal(err)
		}
	}); allocs > 6 {
		t.Errorf("warm Simulate after growth allocates %.0f objects/run, want ≤ 6", allocs)
	}
}

// TestSimulatorRebindsAcrossEstimators checks that swapping the estimator or
// options between calls is priced with the new ones, never with durations an
// earlier call derived.
func TestSimulatorRebindsAcrossEstimators(t *testing.T) {
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 4})
	e1 := cost.Uniform(4, 1, 2, 0.25)
	e2 := cost.Uniform(4, 2, 4, 0.5)
	eng := &Simulator{}
	assertSameOutcome(t, "e1", eng, s, e1, Options{})
	assertSameOutcome(t, "e2", eng, s, e2, Options{})
	assertSameOutcome(t, "e1-again", eng, s, e1, Options{DP: 8})
	r1, err := eng.Simulate(s, e1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Simulate(s, e2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Total == r2.Total {
		t.Error("different estimators produced identical makespans; stale durations?")
	}
	if math.IsNaN(r1.Total) || math.IsNaN(r2.Total) {
		t.Error("NaN makespan")
	}
}

// TestSimulatorSeesInPlaceEdits: nothing an engine keeps is compared against
// an earlier call's arguments, so a list edited in place — no SetList, the same
// backing array and length — and an estimator edited in place under the same
// pointer are both simulated as what they now are.
func TestSimulatorSeesInPlaceEdits(t *testing.T) {
	s := build(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	eng := &Simulator{}
	opt := Options{}
	assertSameOutcome(t, "before", eng, s, e, opt)
	prev, err := eng.Simulate(s, e, opt)
	if err != nil {
		t.Fatal(err)
	}
	changed := func(name string) {
		t.Helper()
		now, err := Simulate(s, e, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(now, prev) {
			t.Fatalf("%s: the edit left the result as it was; it proves nothing", name)
		}
		assertSameOutcome(t, name, eng, s, e, opt)
		prev = now
	}

	// The last stage runs each micro-batch's forward and backward back to
	// back: a pair of compute instructions of different kinds to swap.
	d := s.NumDevices() - 1
	list := s.Lists[d]
	first := &list[0]
	swapped := false
	for i := 0; i+1 < len(list) && !swapped; i++ {
		if list[i].Kind.IsCompute() && list[i+1].Kind.IsCompute() && list[i].Kind != list[i+1].Kind {
			list[i], list[i+1] = list[i+1], list[i]
			swapped = true
		}
	}
	if !swapped || &s.Lists[d][0] != first {
		t.Fatal("fixture: no in-place swap of two compute instructions")
	}
	changed("list edited in place")

	e.FwTime[1] *= 3
	changed("estimator edited in place")
}
