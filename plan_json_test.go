package mario_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"mario"
	"mario/internal/viz"
)

func smallPlan(t *testing.T) *mario.Plan {
	t.Helper()
	plan, err := mario.Optimize(mario.Config{
		PipelineScheme:  "Auto",
		GlobalBatchSize: 16,
		NumDevices:      4,
		MemoryPerDevice: "40G",
		MicroBatchSizes: []int{1, 2},
	}, mario.Model("LLaMA2-3B"))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// Marshal → Unmarshal → Marshal must be byte-identical: the planning
// service's cache serves stored bytes, and a remote client that re-saves a
// plan must produce the same artifact.
func TestPlanJSONRoundTrip(t *testing.T) {
	plan := smallPlan(t)
	first, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := mario.LoadPlan(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-marshal differs: %d vs %d bytes", len(first), len(second))
	}
	if !reflect.DeepEqual(plan.SearchStats, decoded.SearchStats) {
		t.Errorf("search stats changed: %+v vs %+v", plan.SearchStats, decoded.SearchStats)
	}
	if decoded.Best.Label() != plan.Best.Label() || decoded.Best.Throughput != plan.Best.Throughput {
		t.Errorf("best changed: %s (%v) vs %s (%v)",
			decoded.Best.Label(), decoded.Best.Throughput, plan.Best.Label(), plan.Best.Throughput)
	}
	if len(decoded.Trace) != len(plan.Trace) {
		t.Fatalf("trace length changed: %d vs %d", len(decoded.Trace), len(plan.Trace))
	}
	for i := range plan.Trace {
		if decoded.Trace[i].Label() != plan.Trace[i].Label() ||
			decoded.Trace[i].Throughput != plan.Trace[i].Throughput {
			t.Errorf("trace[%d] changed: %s vs %s", i, decoded.Trace[i].Label(), plan.Trace[i].Label())
		}
	}
}

// A decoded plan must be fully functional: Run executes it on the emulated
// cluster with results identical to running the original, and Visualize and
// Drift keep working (the profiler was reconstructed).
func TestPlanJSONDecodedPlanRuns(t *testing.T) {
	plan := smallPlan(t)
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := mario.LoadPlan(data)
	if err != nil {
		t.Fatal(err)
	}

	want, err := mario.RunWithOptions(plan, 2, mario.RunOptions{CollectEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mario.RunWithOptions(decoded, 2, mario.RunOptions{CollectEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want.SamplesPerSec-got.SamplesPerSec) > 1e-9*math.Abs(want.SamplesPerSec) {
		t.Errorf("decoded plan throughput %v != original %v", got.SamplesPerSec, want.SamplesPerSec)
	}
	if !reflect.DeepEqual(want.PeakMem, got.PeakMem) {
		t.Errorf("decoded plan peak memory %v != original %v", got.PeakMem, want.PeakMem)
	}

	if bytes.Contains(data, []byte(`"Timeline"`)) {
		t.Error("the encoded plan stores a timeline")
	}
	// A decoded plan answers its readers as the fresh one does: each
	// re-simulates Best for its records.
	wantDrift, err := mario.Drift(plan, want)
	if err != nil {
		t.Fatal(err)
	}
	gotDrift, err := mario.Drift(decoded, got)
	if err != nil {
		t.Fatalf("drift on decoded plan: %v", err)
	}
	if !reflect.DeepEqual(gotDrift, wantDrift) {
		t.Error("the decoded plan's drift report differs from the fresh plan's")
	}
	render := func(p *mario.Plan) (chart, trace []byte) {
		var a, b bytes.Buffer
		if err := mario.Visualize(&a, p); err != nil {
			t.Fatalf("visualize: %v", err)
		}
		res, err := mario.Resimulate(p, &p.Best)
		if err != nil {
			t.Fatal(err)
		}
		if err := viz.ChromeTrace(&b, res.Timeline); err != nil {
			t.Fatal(err)
		}
		return a.Bytes(), b.Bytes()
	}
	wantChart, wantTrace := render(plan)
	gotChart, gotTrace := render(decoded)
	if !bytes.Equal(gotChart, wantChart) || !bytes.Equal(gotTrace, wantTrace) {
		t.Error("the decoded plan's chart or predicted trace differs from the fresh plan's")
	}

	// A body from before version 4 still decodes; the timelines it carries
	// are ignored, and its readers re-simulate too.
	old, err := os.ReadFile("testdata/plan_6bfc195.json")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := mario.LoadPlan(old)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Best.Result.Timeline != nil {
		t.Error("a decoded version-2 body kept Best's stored timeline")
	}
	if err := mario.Visualize(new(bytes.Buffer), legacy); err != nil {
		t.Errorf("visualize on a version-2 body: %v", err)
	}

	// Drift trusts no stored number: a body whose Best makespan was edited by
	// hand does not re-simulate, so its drift is refused.
	var body map[string]any
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	result := body["best"].(map[string]any)["Result"].(map[string]any)
	result["Total"] = result["Total"].(float64) * 1.5
	edited, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := mario.LoadPlan(edited)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mario.Drift(forged, got); err == nil {
		t.Error("drift accepted a plan whose Best makespan was edited")
	}
}

// legacyV1Body is a version-1 plan body: a version-1 writer (before the
// partitioning/placement fields existed) put schedules and per-instruction
// timelines on every trace candidate, which is what testdata/plan_6bfc195.json
// carries, and an axis-free version-2 body is byte-identical to a version-1
// body apart from the version field itself — so rewriting that field yields a
// faithful legacy artifact.
func legacyV1Body(t testing.TB) []byte {
	t.Helper()
	v2, err := os.ReadFile("testdata/plan_6bfc195.json")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(v2, []byte(`"Place"`)) || bytes.Contains(v2, []byte(`"PlaceMode"`)) {
		t.Fatal("axis-free plan JSON must omit the placement fields")
	}
	v1 := bytes.Replace(v2, []byte(`"version":2`), []byte(`"version":1`), 1)
	if bytes.Equal(v1, v2) {
		t.Fatal("version field not found in plan JSON")
	}
	return v1
}

// wideMicroBody is the version-2 plan body with one instruction's micro-batch
// raised by 2³², which a 32-bit coordinate would wrap back to the original.
func wideMicroBody(t testing.TB) []byte {
	t.Helper()
	v2, err := os.ReadFile("testdata/plan_6bfc195.json")
	if err != nil {
		t.Fatal(err)
	}
	wide := bytes.Replace(v2, []byte(`"m":1,"s":0`), []byte(`"m":4294967297,"s":0`), 1)
	if bytes.Equal(wide, v2) {
		t.Fatal("no micro-batch 1 instruction found in plan JSON")
	}
	return wide
}

// A plan whose schedule names a coordinate outside int32 is refused, not
// wrapped into a plan that loads and saves to other bytes.
func TestPlanJSONRejectsWideCoordinate(t *testing.T) {
	if _, err := mario.LoadPlan(wideMicroBody(t)); err == nil {
		t.Error("a micro-batch of 2³²+1 loaded")
	}
}

// A version-1 plan must still decode, to the plan the version-2 body it
// differs from by one byte decodes to.
func TestPlanJSONLegacyV1Decode(t *testing.T) {
	legacy := legacyV1Body(t)
	decoded, err := mario.LoadPlan(legacy)
	if err != nil {
		t.Fatalf("legacy v1 plan rejected: %v", err)
	}
	v2, err := mario.LoadPlan(bytes.Replace(legacy, []byte(`"version":1`), []byte(`"version":2`), 1))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Best.Label() != v2.Best.Label() || decoded.Best.Throughput != v2.Best.Throughput {
		t.Errorf("legacy decode changed best: %s (%v) vs %s (%v)",
			decoded.Best.Label(), decoded.Best.Throughput, v2.Best.Label(), v2.Best.Throughput)
	}
	if decoded.Trace[0].Schedule == nil {
		t.Error("legacy decode dropped the trace schedules the body carries")
	}
	// Re-saving a legacy plan upgrades it to the current version.
	resaved, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved, want) || !bytes.HasPrefix(resaved, []byte(`{"version":4,`)) {
		t.Error("re-saved legacy plan differs from the current-version encoding")
	}
}

// A heterogeneous plan's partitioning/placement assignment must survive the
// round trip byte-identically, and the decoded plan must Run on the same
// speed-factored machine.
func TestPlanJSONHeteroRoundTrip(t *testing.T) {
	plan, err := mario.Optimize(mario.Config{
		PipelineScheme:  "1F1B",
		GlobalBatchSize: 16,
		NumDevices:      4,
		MemoryPerDevice: "40G",
		MicroBatchSizes: []int{2},
		DeviceSpeeds:    []float64{1, 1, 0.8, 1},
	}, mario.Model("LLaMA2-3B"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best.Place == nil {
		t.Fatal("heterogeneous plan carries no placement assignment")
	}
	first, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := mario.LoadPlan(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-marshal differs: %d vs %d bytes", len(first), len(second))
	}
	if decoded.Best.Place == nil || !reflect.DeepEqual(decoded.Best.Place, plan.Best.Place) {
		t.Errorf("assignment changed across round trip: %+v vs %+v",
			decoded.Best.Place, plan.Best.Place)
	}
	want, err := mario.Run(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mario.Run(decoded, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want.SamplesPerSec != got.SamplesPerSec {
		t.Errorf("decoded hetero plan throughput %v != original %v", got.SamplesPerSec, want.SamplesPerSec)
	}
}

// Corrupted or incompatible payloads must be rejected, not half-decoded.
func TestPlanJSONRejectsBadInput(t *testing.T) {
	plan := smallPlan(t)
	good, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"not json":      []byte("{nope"),
		"empty object":  []byte("{}"),
		"wrong version": bytes.Replace(good, []byte(`"version":4`), []byte(`"version":99`), 1),
		"bad schedule":  bytes.Replace(good, []byte(`"k":"BW"`), []byte(`"k":"??"`), 1),
	}
	for name, data := range cases {
		if _, err := mario.LoadPlan(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
