package cluster

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"mario/internal/cost"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

// TestSinkDoesNotPerturbRun: the same machine produces byte-identical
// reports with and without event collection — observability must not touch
// virtual time or the jitter streams.
func TestSinkDoesNotPerturbRun(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)

	plain := mustRun(t, &Machine{Truth: e, Noise: 0.05, ExtraOverhead: 0.01, Seed: 9}, s, 2)
	observed := mustRun(t, &Machine{Truth: e, Noise: 0.05, ExtraOverhead: 0.01, Seed: 9, CollectEvents: true}, s, 2)
	if plain.Events != nil {
		t.Fatalf("a run that did not collect returned %d events", len(plain.Events))
	}
	if len(observed.Events) == 0 {
		t.Fatal("collecting run returned no events")
	}

	// WatchdogResets depends on wall-clock scheduling, not the virtual run;
	// mask it (and the collected events) before the exact comparison.
	plain.WatchdogResets, observed.WatchdogResets = 0, 0
	observed.Events = nil
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("collecting events changed the report:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

// TestEventStreamComplete: one event per executed instruction, delivered
// device-major in execution order with sane intervals.
func TestEventStreamComplete(t *testing.T) {
	const iters = 2
	s := buildSched(t, pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(s.NumStages(), 1, 2, 0.25)
	events := mustRun(t, &Machine{Truth: e, Noise: 0.02, Seed: 5, CollectEvents: true}, s, iters).Events

	want := 0
	for _, list := range s.Lists {
		want += len(list) * iters
	}
	if len(events) != want {
		t.Fatalf("got %d events, want %d", len(events), want)
	}
	lastDev, lastEnd := 0, 0.0
	for i, ev := range events {
		if ev.Device < lastDev {
			t.Fatalf("event %d: device order regressed (%d after %d)", i, ev.Device, lastDev)
		}
		if ev.Device > lastDev {
			lastDev, lastEnd = ev.Device, 0
		}
		if ev.Start < lastEnd-1e-12 {
			t.Fatalf("event %d on dev%d starts at %v before previous end %v", i, ev.Device, ev.Start, lastEnd)
		}
		if ev.End < ev.Start {
			t.Fatalf("event %d: End %v < Start %v", i, ev.End, ev.Start)
		}
		if ev.Wait < 0 {
			t.Fatalf("event %d: negative wait %v", i, ev.Wait)
		}
		if ev.Kind.IsComm() != (ev.Peer >= 0) {
			t.Fatalf("event %d: kind %s with peer %d", i, ev.Kind, ev.Peer)
		}
		lastEnd = ev.End
	}
}

// TestEventStreamDeterministic: a fixed seed reproduces the identical event
// stream across runs.
func TestEventStreamDeterministic(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	run := func() []obs.Event {
		return mustRun(t, &Machine{Truth: e, Noise: 0.05, Seed: 11, CollectEvents: true}, s, 2).Events
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different event streams")
	}
}

// TestMeasuredBubbleMatchesPredicted: on a noise-free machine the measured
// per-device bubble ratio derived from the event stream equals the
// simulator's prediction — the measured counterpart of sim.Result.BubbleRatio
// closes the loop of Fig. 5.
func TestMeasuredBubbleMatchesPredicted(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	pred, err := sim.Simulate(s, e, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, &Machine{Truth: e, Seed: 42, CollectEvents: true}, s, 1)
	st := obs.Compute(rep.Events, rep.Total)
	for d := range st.Devices {
		got, want := st.BubbleRatio(d), pred.BubbleRatio(d)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("dev%d: measured bubble %v, predicted %v", d, got, want)
		}
	}
}

// TestEventMemoryMatchesSim: the per-event memory trace peaks at the
// simulator's predicted per-device peak (the machine's slack/noise applies
// to the report, not to the modeled trace).
func TestEventMemoryMatchesSim(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	rep := mustRun(t, &Machine{Truth: e, Seed: 1, CollectEvents: true}, s, 1)
	want := sim.PeakMemory(s, e)
	st := obs.Compute(rep.Events, 0)
	for d := range st.Devices {
		if got := st.Devices[d].PeakMem; got > want[d]+1e-9 {
			t.Errorf("dev%d: event memory peak %v exceeds predicted %v", d, got, want[d])
		}
	}
}

// TestDeadlockErrorNamesCulprit: the enriched deadlock error identifies the
// stuck devices, their pending instructions and the blocked links.
func TestDeadlockErrorNamesCulprit(t *testing.T) {
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
	m := &Machine{Truth: e, Seed: 1, Watchdog: 200 * time.Millisecond}
	_, err := m.Run(s, 1)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	msg := err.Error()
	for _, want := range []string{
		"dev0 blocked on recv RG0^0",
		"link 1->0[grad]",
		"dev1 blocked on recv RA0^0",
		"link 0->1[act]",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock error missing %q:\n%s", want, msg)
		}
	}
}

// TestWatchdogResetsCounted: a watchdog much shorter than the run re-arms at
// least once on progress instead of tripping.
func TestWatchdogResetsCounted(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 8})
	e := cost.Uniform(4, 1, 2, 0.25)
	// Slow the wall clock down with many iterations and a 1ms watchdog: the
	// devices keep making progress, so the run must complete.
	m := &Machine{Truth: e, Seed: 2, Watchdog: time.Millisecond}
	rep := mustRun(t, m, s, 50)
	if rep.WatchdogResets < 1 {
		t.Skip("run finished inside one watchdog interval (machine too fast)")
	}
}
