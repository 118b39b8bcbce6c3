package mario_test

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"mario"
)

// TestTraceTimelinesRecomputable pins what a plan keeps and what it can
// rebuild: only Best carries a simulated timeline — in a fresh plan exactly as
// in a decoded one — and Resimulate reproduces every trace candidate's stored
// totals bit for bit and Best's stored timeline exactly, so nothing that was
// dropped is lost.
func TestTraceTimelinesRecomputable(t *testing.T) {
	ckpt := true
	for _, tc := range []struct {
		name, model string
		conf        mario.Config
	}{
		{"gpt1.6b-8-auto", "GPT3-1.6B", mario.Config{
			PipelineScheme: "Auto", NumDevices: 8, GlobalBatchSize: 64, MemoryPerDevice: "40G"}},
		{"hetero-8-coopt", "GPT3-13B", heteroConf("coopt")},
		{"zbh1-16", "GPT3-13B", mario.Config{
			PipelineScheme: "Z", NumDevices: 16, GlobalBatchSize: 64, MemoryPerDevice: "40G"}},
		{"split-backward", "LLaMA2-3B", mario.Config{
			PipelineScheme: "V", NumDevices: 4, GlobalBatchSize: 16, MemoryPerDevice: "40G",
			MicroBatchSizes: []int{1, 2}, Checkpoint: &ckpt, SplitBackward: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := mario.Optimize(tc.conf, mario.Model(tc.model))
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
			for kind, plan := range map[string]*mario.Plan{"fresh": fresh, "decoded": decoded} {
				if len(plan.Trace) == 0 {
					t.Fatalf("%s: empty trace", kind)
				}
				if plan.Best.Result.Timeline == nil {
					t.Errorf("%s: Best carries no timeline", kind)
				}
				for i := range plan.Trace {
					c := &plan.Trace[i]
					if c.Result.Timeline != nil {
						t.Errorf("%s: Trace[%d] %s carries a timeline", kind, i, c.Label())
					}
					res, err := mario.Resimulate(plan, c)
					if err != nil {
						t.Errorf("%s: Trace[%d] %s: %v", kind, i, c.Label(), err)
						continue
					}
					was := c.Result
					if res.Total != was.Total || res.SamplesPerSec != was.SamplesPerSec || res.OOM != was.OOM ||
						!slices.Equal(res.PeakMem, was.PeakMem) || !slices.Equal(res.ComputeBusy, was.ComputeBusy) {
						t.Errorf("%s: Trace[%d] %s: re-simulated totals differ from the stored ones", kind, i, c.Label())
					}
					if len(res.Timeline) != c.Schedule.NumDevices() {
						t.Errorf("%s: Trace[%d] %s: re-simulated timeline covers %d of %d devices",
							kind, i, c.Label(), len(res.Timeline), c.Schedule.NumDevices())
					}
				}
				res, err := mario.Resimulate(plan, &plan.Best)
				if err != nil {
					t.Fatalf("%s: Best: %v", kind, err)
				}
				if !reflect.DeepEqual(res.Timeline, plan.Best.Result.Timeline) {
					t.Errorf("%s: re-simulating Best does not reproduce its stored timeline", kind)
				}
			}
		})
	}
}

// TestResimulateRefusesForeignCandidate: a candidate whose stored totals the
// plan's own inputs do not reproduce is refused, not silently re-scored.
func TestResimulateRefusesForeignCandidate(t *testing.T) {
	plan := smallPlan(t)
	c := plan.Trace[0]
	res := *c.Result
	res.Total *= 1.5
	c.Result = &res
	if _, err := mario.Resimulate(plan, &c); err == nil {
		t.Error("candidate with a tampered makespan was re-simulated without complaint")
	}
	if _, err := mario.Resimulate(nil, &c); err == nil {
		t.Error("nil plan accepted")
	}
}

// A plan body written by the parent commit — per-instruction timelines on
// every trace candidate — must keep loading: the wire format did not change,
// only what a fresh search puts on it. testdata/plan_6bfc195.json is
// json.Marshal(mario.Optimize(V, 4 devices, gbs 8, mbs 2, LLaMA2-3B)) at
// commit 6bfc195.
func TestPlanJSONParentCommitBodyLoads(t *testing.T) {
	body, err := os.ReadFile("testdata/plan_6bfc195.json")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mario.LoadPlan(body)
	if err != nil {
		t.Fatalf("parent-commit plan rejected: %v", err)
	}
	withTimeline := 0
	for _, c := range plan.Trace {
		if c.Result != nil && c.Result.Timeline != nil {
			withTimeline++
		}
	}
	if withTimeline == 0 {
		t.Fatal("testdata body carries no trace timelines; it does not exercise the old format")
	}
	rep, err := mario.RunWithOptions(plan, 2, mario.RunOptions{CollectEvents: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := mario.Drift(plan, rep); err != nil {
		t.Errorf("drift: %v", err)
	}
	if _, err := mario.Resimulate(plan, &plan.Trace[0]); err != nil {
		t.Errorf("resimulate: %v", err)
	}
	again, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, body) {
		t.Error("re-saving the parent-commit body changed it")
	}

	// The same search today: same winner and result, trace timelines gone.
	fresh, err := mario.Optimize(mario.Config{
		PipelineScheme: "V", GlobalBatchSize: 8, NumDevices: 4, MemoryPerDevice: "40G",
		MicroBatchSizes: []int{2},
	}, mario.Model("LLaMA2-3B"))
	if err != nil {
		t.Fatal(err)
	}
	bestThen, err := json.Marshal(plan.Best)
	if err != nil {
		t.Fatal(err)
	}
	bestNow, err := json.Marshal(fresh.Best)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bestNow, bestThen) {
		t.Error("today's Best encodes differently from the parent commit's (label, schedule, result or timeline)")
	}
	now, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(now) >= len(body) {
		t.Errorf("fresh plan is %d bytes, the parent commit's was %d", len(now), len(body))
	}
}
