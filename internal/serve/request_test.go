package serve

import (
	"strings"
	"testing"

	"mario"
)

// TestRequestValidateErrors pins the error message of every PlanRequest
// reject path, so HTTP clients get a diagnosable 400 body rather than a
// generic failure.
func TestRequestValidateErrors(t *testing.T) {
	valid := func() PlanRequest {
		return PlanRequest{Model: "LLaMA2-3B", Devices: 8, GlobalBatch: 64}
	}
	cases := []struct {
		name    string
		mut     func(*PlanRequest)
		wantErr string
	}{
		{"model and model_config", func(r *PlanRequest) {
			m := mario.Models()["LLaMA2-3B"]
			r.ModelConfig = &m
		}, "model or model_config, not both"},
		{"unknown model", func(r *PlanRequest) { r.Model = "GPT9-999T" }, `unknown model "GPT9-999T"`},
		{"missing model", func(r *PlanRequest) { r.Model = "" }, "model or model_config is required"},
		{"zero devices", func(r *PlanRequest) { r.Devices = 0 }, "must be positive"},
		{"negative global batch", func(r *PlanRequest) { r.GlobalBatch = -1 }, "must be positive"},
		{"bad scheme", func(r *PlanRequest) { r.Scheme = "zigzag" }, "unknown scheme"},
		{"bad memory", func(r *PlanRequest) { r.Memory = "lots" }, "invalid memory spec"},
		{"zero micro batch", func(r *PlanRequest) { r.MicroBatches = []int{4, 0} }, "micro_batches entries must be positive"},
		{"negative timeout", func(r *PlanRequest) { r.TimeoutSec = -1 }, "timeout_sec must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := valid()
			tc.mut(&r)
			if _, err := r.Validate(); err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() error = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestFingerprintStrategyFields pins which of the search-strategy knobs are
// part of the workload identity. NoPrune and NoBnB change the trace and the
// search stats, so they must produce distinct cache entries; Workers and
// TimeoutSec are speed controls with bit-identical plans, so they must share
// one.
func TestFingerprintStrategyFields(t *testing.T) {
	fp := func(mut func(*PlanRequest)) string {
		r := PlanRequest{Model: "LLaMA2-3B", Devices: 8, GlobalBatch: 64}
		if mut != nil {
			mut(&r)
		}
		model, err := r.Validate()
		if err != nil {
			t.Fatal(err)
		}
		return r.Fingerprint(model)
	}
	base := fp(nil)

	for name, mut := range map[string]func(*PlanRequest){
		"no_prune": func(r *PlanRequest) { r.NoPrune = true },
		"no_bnb":   func(r *PlanRequest) { r.NoBnB = true },
	} {
		if fp(mut) == base {
			t.Errorf("%s: fingerprint unchanged, want a distinct cache identity", name)
		}
	}
	for name, mut := range map[string]func(*PlanRequest){
		"workers":     func(r *PlanRequest) { r.Workers = 7 },
		"timeout_sec": func(r *PlanRequest) { r.TimeoutSec = 3 },
	} {
		if fp(mut) != base {
			t.Errorf("%s: fingerprint changed, but the plan is bit-identical — cache would split", name)
		}
	}

	// Scheme canonicalization: the "auto" spellings share one identity.
	if fp(func(r *PlanRequest) { r.Scheme = "auto" }) != base || fp(func(r *PlanRequest) { r.Scheme = "Auto" }) != base {
		t.Error("auto-scheme spellings produce distinct fingerprints")
	}
}

// TestRequestConfigPlumbing: every strategy knob on the wire reaches the
// optimizer config — a silently dropped field would make the daemon ignore
// what the client asked for.
func TestRequestConfigPlumbing(t *testing.T) {
	r := PlanRequest{
		Model: "LLaMA2-3B", Devices: 8, GlobalBatch: 64,
		NoPrune: true, NoBnB: true,
	}
	if _, err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	conf := r.Config(3)
	if !conf.NoPrune || !conf.NoBnB {
		t.Errorf("config dropped a strategy knob: NoPrune=%v NoBnB=%v", conf.NoPrune, conf.NoBnB)
	}
	if conf.Workers != 3 {
		t.Errorf("config.Workers = %d, want the resolved value 3", conf.Workers)
	}
}
