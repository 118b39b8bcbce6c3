package mario_test

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"mario"
	"mario/internal/place"
	"mario/internal/sim"
	"mario/internal/tuner"
)

// sameTotals reports whether two simulation results agree bit for bit on
// everything a candidate stores of one.
func sameTotals(a, b *sim.Result) bool {
	return a.Total == b.Total && a.SamplesPerSec == b.SamplesPerSec && a.OOM == b.OOM &&
		slices.Equal(a.PeakMem, b.PeakMem) && slices.Equal(a.ComputeBusy, b.ComputeBusy)
}

// TestTraceTimelinesRecomputable pins what a plan keeps and what it can
// rebuild: only Best carries a schedule and no candidate a simulated timeline
// — in a fresh plan exactly as in a decoded one, whoever evaluated the
// candidates — and Resimulate rebuilds every trace candidate's schedule as
// the search scored it, reproduces its stored totals bit for bit with a
// timeline for every device, and gives Best the same timeline on the fresh
// and the decoded plan, so nothing that was dropped is lost.
func TestTraceTimelinesRecomputable(t *testing.T) {
	ckpt := true
	auto8 := mario.Config{PipelineScheme: "Auto", NumDevices: 8, GlobalBatchSize: 64, MemoryPerDevice: "40G"}
	auto8w3 := auto8
	auto8w3.Workers = 3
	for _, tc := range []struct {
		name, model string
		conf        mario.Config
		long        bool
	}{
		{name: "gpt1.6b-8-auto", model: "GPT3-1.6B", conf: auto8},
		{name: "gpt1.6b-8-auto-workers-3", model: "GPT3-1.6B", conf: auto8w3},
		{name: "hetero-8-coopt", model: "GPT3-13B", conf: heteroConf("coopt")},
		{name: "zbh1-16", model: "GPT3-13B", conf: mario.Config{
			PipelineScheme: "Z", NumDevices: 16, GlobalBatchSize: 64, MemoryPerDevice: "40G"}},
		{name: "split-backward", model: "LLaMA2-3B", conf: mario.Config{
			PipelineScheme: "V", NumDevices: 4, GlobalBatchSize: 16, MemoryPerDevice: "40G",
			MicroBatchSizes: []int{1, 2}, Checkpoint: &ckpt, SplitBackward: true}},
		{name: "gpt13b-64-auto", model: "GPT3-13B", long: true, conf: mario.Config{
			PipelineScheme: "Auto", NumDevices: 64, GlobalBatchSize: 256, MemoryPerDevice: "40G"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("64-device search; skipped with -short")
			}
			model := mario.Model(tc.model)
			// What the search scored, seen where it scored it: the Progress
			// callback of the same search is the witness.
			scored, err := mario.ScoredSchedules(tc.conf, model)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := mario.Optimize(tc.conf, model)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := mario.LoadPlan(data)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := json.Marshal(decoded); err != nil || !bytes.Equal(again, data) {
				t.Errorf("decoded plan re-encodes differently (err %v)", err)
			}
			bestTimeline := map[string][]mario.Event{}
			for kind, plan := range map[string]*mario.Plan{"fresh": fresh, "decoded": decoded} {
				if len(plan.Trace) == 0 {
					t.Fatalf("%s: empty trace", kind)
				}
				if plan.Best.Schedule == nil || plan.Best.Result.Timeline != nil {
					t.Fatalf("%s: Best carries no schedule, or a timeline", kind)
				}
				for i := range plan.Trace {
					c := &plan.Trace[i]
					if c.Schedule != nil || c.Result.Timeline != nil {
						t.Errorf("%s: Trace[%d] %s carries a schedule or a timeline", kind, i, c.Label())
					}
					res, err := mario.Resimulate(plan, c)
					if err != nil {
						t.Errorf("%s: Trace[%d] %s: %v", kind, i, c.Label(), err)
						continue
					}
					was := c.Result
					if !sameTotals(res, was) {
						t.Errorf("%s: Trace[%d] %s: re-simulated totals differ from the stored ones", kind, i, c.Label())
					}
					if devs := devicesOf(res.Timeline); devs != c.PP {
						t.Errorf("%s: Trace[%d] %s: re-simulated timeline covers %d of %d devices",
							kind, i, c.Label(), devs, c.PP)
					}
					if c.Schedule != nil || c.Result != was {
						t.Errorf("%s: Trace[%d] %s: Resimulate modified the candidate", kind, i, c.Label())
					}
					rebuilt, err := mario.RebuiltSchedule(plan, c)
					if err != nil {
						t.Errorf("%s: Trace[%d] %s: %v", kind, i, c.Label(), err)
					} else if rebuilt != scored[c.Label()] {
						t.Errorf("%s: Trace[%d] %s: rebuilt schedule is not the one the search scored", kind, i, c.Label())
					}
				}
				res, err := mario.Resimulate(plan, &plan.Best)
				if err != nil {
					t.Fatalf("%s: Best: %v", kind, err)
				}
				if devs := devicesOf(res.Timeline); devs != plan.Best.PP {
					t.Errorf("%s: Best's timeline covers %d of %d devices", kind, devs, plan.Best.PP)
				}
				bestTimeline[kind] = res.Timeline
				if plan.Best.Schedule.String() != scored[plan.Best.Label()] {
					t.Errorf("%s: Best's schedule is not the one the search scored", kind)
				}
			}
			if !reflect.DeepEqual(bestTimeline["fresh"], bestTimeline["decoded"]) {
				t.Error("re-simulating Best gives the decoded plan another timeline than the fresh one")
			}
		})
	}
}

// devicesOf counts the devices a record stream covers.
func devicesOf(events []mario.Event) int {
	n := 0
	for _, e := range events {
		n = max(n, e.Device+1)
	}
	return n
}

// TestResimulateRefusesForeignCandidate: a candidate the plan's own inputs do
// not reproduce is refused, not silently re-scored — one whose coordinates are
// not a point of the plan's search before anything is built from them, one
// whose stored totals do not come back after.
func TestResimulateRefusesForeignCandidate(t *testing.T) {
	plan := smallPlan(t)
	if _, err := mario.Resimulate(nil, &plan.Trace[0]); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := mario.Resimulate(plan, &plan.Trace[0]); err != nil {
		t.Fatalf("untouched candidate refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(c *tuner.Candidate)
	}{
		{"makespan", func(c *tuner.Candidate) {
			res := *c.Result
			res.Total *= 1.5
			c.Result = &res
		}},
		{"pp", func(c *tuner.Candidate) { c.PP /= 2 }},
		{"micros", func(c *tuner.Candidate) { c.Micros *= 2 }},
		{"micro-batch", func(c *tuner.Candidate) { c.MicroBatch *= 2 }},
		// A real point of the same space, with another point's totals.
		{"another point", func(c *tuner.Candidate) { c.PP, c.DP, c.Micros = c.PP/2, c.DP*2, c.Micros/2 }},
		{"unregistered scheme", func(c *tuner.Candidate) { c.Scheme = "Zigzag" }},
		{"place of the wrong length", func(c *tuner.Candidate) {
			c.Place = &place.Assignment{LayersPerStage: make([]int, c.PP), DeviceOf: make([]int, c.PP+1)}
		}},
		{"place splitting the wrong stage count", func(c *tuner.Candidate) {
			c.Place = &place.Assignment{LayersPerStage: make([]int, c.PP+1), DeviceOf: make([]int, c.PP)}
		}},
	} {
		c := plan.Trace[0]
		tc.edit(&c)
		if _, err := mario.Resimulate(plan, &c); err == nil {
			t.Errorf("candidate with an edited %s was re-simulated without complaint", tc.name)
		}
	}

	// Coordinates sized to exhaust memory are refused before anything is
	// sized from them: the refusal costs microseconds, a build would not.
	huge := plan.Trace[0]
	huge.PP = 1 << 30
	fastest := time.Hour
	for try := 0; try < 5; try++ {
		start := time.Now()
		if _, err := mario.Resimulate(plan, &huge); err == nil {
			t.Fatal("candidate with pp = 1<<30 accepted")
		}
		fastest = min(fastest, time.Since(start))
	}
	if fastest >= time.Millisecond {
		t.Errorf("refusing pp = 1<<30 took %v: something was built first", fastest)
	}
}

// Plan bodies written by earlier commits must keep loading, with the
// timelines they carry ignored, and every save must write the current format. testdata/plan_6bfc195.json (version 2:
// schedules and per-instruction timelines on every trace candidate) and
// testdata/plan_30dd99b.json (version 2: trace schedules, no trace timelines)
// are json.Marshal(mario.Optimize(V, 4 devices, gbs 8, mbs 2, LLaMA2-3B)) at
// those commits.
func TestPlanJSONParentCommitBodyLoads(t *testing.T) {
	// The same search today: same winner and result, trace schedules gone.
	fresh, err := mario.Optimize(mario.Config{
		PipelineScheme: "V", GlobalBatchSize: 8, NumDevices: 4, MemoryPerDevice: "40G",
		MicroBatchSizes: []int{2},
	}, mario.Model("LLaMA2-3B"))
	if err != nil {
		t.Fatal(err)
	}
	bestNow, err := json.Marshal(fresh.Best)
	if err != nil {
		t.Fatal(err)
	}
	now, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		file           string
		traceTimelines bool
	}{
		{"testdata/plan_6bfc195.json", true},
		{"testdata/plan_30dd99b.json", false},
	} {
		t.Run(tc.file, func(t *testing.T) {
			body, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(body, []byte(`"Timeline":[`)); (n > 1) != tc.traceTimelines {
				t.Fatalf("the body holds %d timelines: it does not exercise its format", n)
			}
			plan, err := mario.LoadPlan(body)
			if err != nil {
				t.Fatalf("plan rejected: %v", err)
			}
			if plan.Best.Result.Timeline != nil {
				t.Error("Best kept the timeline the body carries")
			}
			for i, c := range plan.Trace {
				if c.Schedule == nil {
					t.Fatalf("Trace[%d] lost the schedule the body carries", i)
				}
				if c.Result.Timeline != nil {
					t.Fatalf("Trace[%d] kept the timeline the body carries", i)
				}
			}
			rep, err := mario.RunWithOptions(plan, 2, mario.RunOptions{CollectEvents: true})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if _, err := mario.Drift(plan, rep); err != nil {
				t.Errorf("drift: %v", err)
			}
			// Re-simulated from the schedule the entry carries, not a rebuild.
			if _, err := mario.Resimulate(plan, &plan.Trace[0]); err != nil {
				t.Errorf("resimulate: %v", err)
			}

			saved, err := json.Marshal(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(saved, []byte(`{"version":4,`)) {
				t.Errorf("re-saving wrote %.16s…, want version 4", saved)
			}
			if len(saved) >= len(body) {
				t.Errorf("re-saved plan is %d bytes, the body was %d", len(saved), len(body))
			}
			reloaded, err := mario.LoadPlan(saved)
			if err != nil {
				t.Fatalf("re-saved plan rejected: %v", err)
			}
			if again, err := json.Marshal(reloaded); err != nil || !bytes.Equal(again, saved) {
				t.Errorf("version 4 → load → save is not a fixed point (err %v)", err)
			}
			for i := range reloaded.Trace {
				if reloaded.Trace[i].Schedule != nil {
					t.Errorf("re-saved Trace[%d] still carries a schedule", i)
				}
				if _, err := mario.Resimulate(reloaded, &reloaded.Trace[i]); err != nil {
					t.Errorf("re-saved Trace[%d]: %v", i, err)
				}
			}

			bestThen, err := json.Marshal(plan.Best)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bestNow, bestThen) {
				t.Error("today's Best encodes differently from the body's (label, schedule, result or timeline)")
			}
			if len(now) >= len(body) {
				t.Errorf("fresh plan is %d bytes, the body was %d", len(now), len(body))
			}
			if !bytes.Equal(now, saved) {
				t.Error("re-saving the parent commit's body does not give today's plan bytes")
			}
		})
	}
}
