package mario_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mario"
	"mario/internal/telemetry"
)

// TestRecycledWorkerCarriesNothing: a search's workers go back to the tuner's
// free list when it ends and serve the next search, which must see capacity
// only. A small corpus input planned before and after the largest one — whose
// released workers it then picks up — leaves byte-identical outputs both
// times: the plan, its SearchStats, the canonical spans and the mario_search_*
// series (the wall-clock histogram aside) of a registry of its own. A leaked
// build, build count, simulation count or scan verdict moves one of them. The
// small input explores every point it probes, so even its pool counts are
// the same on every run.
func TestRecycledWorkerCarriesNothing(t *testing.T) {
	cases := map[string]corpusCase{}
	for _, tc := range corpusCases(t) {
		cases[tc.name] = tc
	}
	small, large := cases["split-backward"], cases["gpt13b-64"]
	for _, workers := range []int{1, 3} {
		before := searchOutputs(t, small, workers)
		searchOutputs(t, large, workers)
		if after := searchOutputs(t, small, workers); !bytes.Equal(before, after) {
			t.Errorf("workers=%d: %s planned after %s differs from its first run\n--- after ---\n%s--- before ---\n%s",
				workers, small.name, large.name, after, before)
		}
	}
}

// searchOutputs plans one corpus input on a registry and tracer of its own and
// renders what the search leaves behind.
func searchOutputs(t *testing.T, tc corpusCase, workers int) []byte {
	t.Helper()
	conf := tc.conf
	conf.Workers = workers
	tracer := telemetry.New(tc.name)
	conf.Tracer = tracer
	reg := telemetry.NewRegistry()
	conf.Metrics = telemetry.NewSearchMetrics(reg)
	plan, err := mario.Optimize(conf, mario.Model(tc.model))
	if err != nil {
		t.Fatal(err)
	}
	planJSON, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	statsJSON, err := json.Marshal(plan.SearchStats)
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	reg.WriteProm(&prom)
	var b bytes.Buffer
	fmt.Fprintf(&b, "plan: %s\nstats: %s\n", planJSON, statsJSON)
	for _, line := range bytes.SplitAfter(prom.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("mario_search_")) && !bytes.HasPrefix(line, []byte("mario_search_seconds")) {
			b.Write(line)
		}
	}
	b.Write(tracer.Snapshot().JSONL())
	return b.Bytes()
}
