package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"mario/internal/fault"
)

// TestFaultsRetention: both schedules run healthy with slack in (0, 1), one
// outcome per ensemble plan with a plausible retention, aggregates that match
// their outcomes, and a measurable dip under at least one plan (the
// straggler slows a device down).
func TestFaultsRetention(t *testing.T) {
	r, err := Faults(Opts{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Plans) != 3 {
		t.Fatalf("default ensemble has %d plans, want 3", len(r.Plans))
	}
	for _, row := range []FaultsRow{r.Base, r.Mario} {
		if row.Healthy <= 0 {
			t.Errorf("row %s: healthy throughput %v", row.Label, row.Healthy)
		}
		if row.Slack <= 0 || row.Slack >= 1 {
			t.Errorf("row %s: slack %v outside (0,1)", row.Label, row.Slack)
		}
		if len(row.Outcomes) != len(r.Plans) {
			t.Fatalf("row %s: %d outcomes, want %d", row.Label, len(row.Outcomes), len(r.Plans))
		}
		var mean float64
		worst := 1.0
		for i, o := range row.Outcomes {
			if o.Err != "" {
				t.Errorf("row %s plan %s failed: %s", row.Label, r.Plans[i], o.Err)
				continue
			}
			if o.Retention <= 0 || o.Retention > 1.05 {
				t.Errorf("row %s plan %s: retention %v implausible", row.Label, r.Plans[i], o.Retention)
			}
			mean += o.Retention
			worst = min(worst, o.Retention)
		}
		mean /= float64(len(row.Outcomes))
		if math.Abs(mean-row.MeanRetention) > 1e-12 || worst != row.WorstRetention {
			t.Errorf("row %s: aggregates %v/%v, recomputed %v/%v",
				row.Label, row.MeanRetention, row.WorstRetention, mean, worst)
		}
		if row.WorstRetention >= 0.999 {
			t.Errorf("row %s: worst retention %v shows no degradation", row.Label, row.WorstRetention)
		}
	}
}

// TestFaultsGainSurvival: the (base, mario) pair is labelled by its shared
// configuration and the gains are the measured ratios.
func TestFaultsGainSurvival(t *testing.T) {
	r, err := Faults(Opts{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Config != "V-4-2" || r.Base.Label != "V-4-2(base)" || r.Mario.Label != "V-4-2(mario)" {
		t.Errorf("labels %q, %q, %q", r.Config, r.Base.Label, r.Mario.Label)
	}
	if want := r.Mario.Healthy/r.Base.Healthy - 1; r.HealthyGain != want {
		t.Errorf("healthy gain %v, want %v", r.HealthyGain, want)
	}
	var want float64
	for i := range r.Plans {
		want += r.Mario.Outcomes[i].Throughput/r.Base.Outcomes[i].Throughput - 1
	}
	want /= float64(len(r.Plans))
	if math.Abs(r.FaultedGain-want) > 1e-12 {
		t.Errorf("faulted gain %v, want %v", r.FaultedGain, want)
	}
	var b bytes.Buffer
	PrintFaults(&b, r)
	if !strings.Contains(b.String(), "checkpoint-gain survival") {
		t.Error("PrintFaults omits the gain-survival table")
	}
}

// TestFaultsDeterministic: repeated measurements render identically.
func TestFaultsDeterministic(t *testing.T) {
	render := func() (string, []string) {
		r, err := Faults(Opts{Fast: true})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		PrintFaults(&b, r)
		return b.String(), r.Plans
	}
	a, aPlans := render()
	b, bPlans := render()
	if a != b {
		t.Error("repeated robustness runs differ")
	}
	if !reflect.DeepEqual(aPlans, bPlans) {
		t.Errorf("plan lists differ: %v vs %v", aPlans, bPlans)
	}
}

// TestFaultsFailedRun: a faulted run that fails outright is an outcome with
// zero retention, not an error, and the table marks it.
func TestFaultsFailedRun(t *testing.T) {
	ensemble := []fault.Plan{
		{Name: "doomed", Seed: 1, MaxRetries: 1,
			Links: []fault.LinkFault{{From: -1, To: -1, DropProb: 0.999999999}}},
	}
	r, err := measureFaults(Opts{Fast: true}, ensemble)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Base.Outcomes[0]
	if out.Err == "" {
		t.Fatal("near-certain drops should fail the run with a link failure")
	}
	if out.Retention != 0 || r.Base.WorstRetention != 0 {
		t.Errorf("failed run should count as zero retention, got %v", out.Retention)
	}
	if r.FaultedGain != 0 {
		t.Errorf("faulted gain %v averages a failed plan", r.FaultedGain)
	}
	var b bytes.Buffer
	PrintFaults(&b, r)
	if !strings.Contains(b.String(), "FAILED") {
		t.Error("PrintFaults should mark the failed run")
	}
}
