package tuner

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mario/internal/fault"
)

// searchSmall runs a tiny search and returns the tuner, the trace and the
// recipe Robustness rebuilds the trace's schedules with.
func searchSmall(t *testing.T) (*Tuner, []Candidate, Recipe) {
	t.Helper()
	tn := newTuner()
	sp := Space{
		Devices:      4,
		GlobalBatch:  16,
		MicroBatches: []int{2},
		MinPP:        4,
		DeviceMem:    0,
		NoPrune:      true, // keep every candidate in the trace
		Workers:      1,
	}
	_, trace, err := tn.Search(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tn, trace, tn.recipe(sp.WithDefaults())
}

func TestRobustnessReScoresTopK(t *testing.T) {
	tn, trace, rc := searchSmall(t)
	rep, err := Robustness(tn.Prof, trace, RobustnessOpts{TopK: 3, Iters: 2, Seed: 5, Recipe: rc})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 || len(rep.Rows) > 3 {
		t.Fatalf("got %d rows, want 1..3", len(rep.Rows))
	}
	if len(rep.Plans) != 3 {
		t.Fatalf("default ensemble has %d plans, want 3", len(rep.Plans))
	}
	ranked := Rank(trace)
	for i, row := range rep.Rows {
		if row.Cand.Label() != ranked[i].Label() {
			t.Errorf("row %d is %s, want rank order %s", i, row.Cand.Label(), ranked[i].Label())
		}
		if row.Healthy <= 0 {
			t.Errorf("row %s: healthy throughput %v", row.Cand.Label(), row.Healthy)
		}
		if row.Slack <= 0 || row.Slack >= 1 {
			t.Errorf("row %s: slack %v outside (0,1)", row.Cand.Label(), row.Slack)
		}
		if len(row.Outcomes) != len(rep.Plans) {
			t.Fatalf("row %s: %d outcomes, want %d", row.Cand.Label(), len(row.Outcomes), len(rep.Plans))
		}
		var mean float64
		worst := 1.0
		for _, o := range row.Outcomes {
			if o.Err != "" {
				t.Errorf("row %s plan %s failed: %s", row.Cand.Label(), o.Plan, o.Err)
				continue
			}
			if o.Retention <= 0 || o.Retention > 1.05 {
				t.Errorf("row %s plan %s: retention %v implausible", row.Cand.Label(), o.Plan, o.Retention)
			}
			mean += o.Retention
			if o.Retention < worst {
				worst = o.Retention
			}
		}
		mean /= float64(len(row.Outcomes))
		if math.Abs(mean-row.MeanRetention) > 1e-12 || worst != row.WorstRetention {
			t.Errorf("row %s: aggregates %v/%v, recomputed %v/%v",
				row.Cand.Label(), row.MeanRetention, row.WorstRetention, mean, worst)
		}
		// The straggler plan slows a device down, so retention must dip
		// measurably below 1 on at least that plan.
		if row.WorstRetention >= 0.999 {
			t.Errorf("row %s: worst retention %v shows no degradation", row.Cand.Label(), row.WorstRetention)
		}
	}
}

func TestRobustnessGainSurvivalPairs(t *testing.T) {
	tn, trace, rc := searchSmall(t)
	// The trace contains base and mario variants of the same V-4-2 point, so
	// with TopK covering the whole trace the pairing must appear.
	rep, err := Robustness(tn.Prof, trace, RobustnessOpts{TopK: len(trace), Iters: 2, Seed: 5, Recipe: rc})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Gains) == 0 {
		t.Fatal("no (base, mario) pair found in the trace")
	}
	for _, g := range rep.Gains {
		if g.Config == "" {
			t.Error("gain row with empty config label")
		}
	}
	if !strings.Contains(rep.Format(), "checkpoint-gain survival") {
		t.Error("Format omits the gain-survival table")
	}
}

func TestRobustnessDeterministic(t *testing.T) {
	tn, trace, rc := searchSmall(t)
	opts := RobustnessOpts{TopK: 2, Iters: 2, Seed: 9, Recipe: rc}
	a, err := Robustness(tn.Prof, trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Robustness(tn.Prof, trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Error("repeated robustness runs differ")
	}
	if !reflect.DeepEqual(a.Plans, b.Plans) {
		t.Errorf("plan lists differ: %v vs %v", a.Plans, b.Plans)
	}
}

func TestRobustnessCustomEnsembleAndFailure(t *testing.T) {
	tn, trace, rc := searchSmall(t)
	ensemble := []fault.Plan{
		{Name: "doomed", Seed: 1, MaxRetries: 1,
			Links: []fault.LinkFault{{From: -1, To: -1, DropProb: 0.999999999}}},
	}
	rep, err := Robustness(tn.Prof, trace, RobustnessOpts{TopK: 1, Iters: 1, Ensemble: ensemble, Recipe: rc})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Rows[0].Outcomes[0]
	if out.Err == "" {
		t.Fatal("near-certain drops should fail the run with a link failure")
	}
	if out.Retention != 0 || rep.Rows[0].WorstRetention != 0 {
		t.Errorf("failed run should count as zero retention, got %v", out.Retention)
	}
	if !strings.Contains(rep.Format(), "FAILED") {
		t.Error("Format should mark the failed run")
	}
}
