package mario_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"mario"
	"mario/internal/tuner"
)

// FuzzPlanDecode feeds LoadPlan the bytes a client, a cache or a peer might
// hand it — mutations of a version-1, two pinned version-2 and a version-4
// body. Whatever arrives, LoadPlan must not panic; a body that loads must
// save, and its saved form must be a version-4 fixed point; and Resimulate of
// Best and of every trace entry must either reproduce the candidate's stored
// totals bit for bit or refuse — since version 3 a trace entry's decoded
// coordinates drive a schedule build, so an edited candidate has to be caught
// before or after that build, never mis-simulated.
func FuzzPlanDecode(f *testing.F) {
	f.Add(legacyV1Body(f))
	for _, file := range []string{"testdata/plan_6bfc195.json", "testdata/plan_30dd99b.json"} {
		body, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		plan, err := mario.LoadPlan(body)
		if err != nil {
			f.Fatal(err)
		}
		v4, err := json.Marshal(plan)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v4)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		plan, err := mario.LoadPlan(body)
		if err != nil {
			return
		}
		saved, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("a plan that loaded does not save: %v", err)
		}
		if !bytes.HasPrefix(saved, []byte(`{"version":4,`)) {
			t.Fatalf("saved as %.16s…, want version 4", saved)
		}
		reloaded, err := mario.LoadPlan(saved)
		if err != nil {
			t.Fatalf("saved plan does not load: %v", err)
		}
		if again, err := json.Marshal(reloaded); err != nil || !bytes.Equal(again, saved) {
			t.Fatalf("load → save is not a fixed point (err %v)", err)
		}
		check := func(p *mario.Plan, c *tuner.Candidate) {
			if !withinFuzzBudget(p, c) {
				return
			}
			res, err := mario.Resimulate(p, c)
			if err != nil {
				return
			}
			if !sameTotals(res, c.Result) {
				t.Fatalf("%s re-simulated to other totals than it stores, without complaint", c.Label())
			}
		}
		// plan keeps the trace schedules a version-1 or -2 body carries,
		// reloaded rebuilds them.
		for _, p := range []*mario.Plan{plan, reloaded} {
			check(p, &p.Best)
			for i := range p.Trace {
				check(p, &p.Trace[i])
			}
		}
	})
}

// withinFuzzBudget bounds what one fuzz input may make a Resimulate call
// build: the probe jobs of the decoded profiler (one emulated device per probe
// pipeline rank, Iters iterations) and the schedule rebuilt from a candidate's
// coordinates. A schedule the candidate carries is bounded by the input's own
// size.
func withinFuzzBudget(p *mario.Plan, c *tuner.Candidate) bool {
	prof := p.Profiler
	if prof.Devices < 0 || prof.Devices > 8 || prof.Iters < 0 || prof.Iters > 16 {
		return false
	}
	const maxPP, maxUnits = 64, 1024 // units: micro-batches × pipeline ranks
	return c.Schedule != nil || (c.PP >= 1 && c.PP <= maxPP && c.Micros >= 1 && c.Micros <= maxUnits/c.PP)
}
