package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
		{"negative tp", func(r *PlanRequest) { r.TP = -1 }, "tp must not be negative"},
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

// TestEmptyMicroBatchesIsAbsent: "micro_batches":[] is the absent field — the
// schema's omitempty says so, since no encoder of a PlanRequest can send an
// empty list. It used to be a workload of its own: fingerprinted as [] where
// the absent field is null, dropped when a member re-encoded the request for
// its owner — which then planned the other workload, answered under the other
// fingerprint and was refused, one discarded search and one routing error per
// request — and finally answered 500 by the asked member, because the tuner
// takes its default micro-batch sizes only for nil.
func TestEmptyMicroBatchesIsAbsent(t *testing.T) {
	const absentBody = `{"model":"LLaMA2-3B","devices":4,"global_batch":16}`
	const emptyBody = `{"model":"LLaMA2-3B","devices":4,"global_batch":16,"micro_batches":[]}`
	fingerprint := func(body string) string {
		t.Helper()
		var r PlanRequest
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		model, err := r.Validate()
		if err != nil {
			t.Fatal(err)
		}
		return r.Fingerprint(model)
	}
	fp := fingerprint(absentBody)
	if got := fingerprint(emptyBody); got != fp {
		t.Errorf("an empty micro_batches fingerprints as %.12s, an absent one as %.12s", got, fp)
	}
	// tp 1 is the same class: the search resolves an absent degree to 1, so the
	// spelled-out default (what cmd/mario -remote sent) was a second fingerprint
	// — a second search and a second cache entry — for byte-identical plans.
	if got := fingerprint(`{"model":"LLaMA2-3B","devices":4,"global_batch":16,"tp":1}`); got != fp {
		t.Errorf("tp 1 fingerprints as %.12s, an absent tp as %.12s", got, fp)
	}
	if !strings.HasPrefix(fp, "4dda982b5617") {
		t.Errorf("the absent-field fingerprint moved: %.12s, pinned 4dda982b5617", fp)
	}
	post := func(url, body string) (int, PlanResponse) {
		t.Helper()
		resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr PlanResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, pr
	}

	t.Run("standalone", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs a real tuner search")
		}
		s := New(Options{})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		status, empty := post(ts.URL, emptyBody)
		if status != http.StatusOK {
			t.Fatalf("the empty-list request was answered %d", status)
		}
		if _, absent := post(ts.URL, absentBody); !absent.Cached || !bytes.Equal(absent.Plan, empty.Plan) {
			t.Errorf("the absent-field request: cached=%v, %d plan bytes against %d", absent.Cached, len(absent.Plan), len(empty.Plan))
		}
	})

	t.Run("routed", func(t *testing.T) {
		aURL, bURL, a, b, cleanup := stubFleetPair(t)
		defer cleanup()
		asked, askedURL := a, aURL
		if newHashRing([]string{aURL, bURL}).owner(fp) == aURL {
			asked, askedURL = b, bURL
		}
		status, pr := post(askedURL, emptyBody)
		if status != http.StatusOK || pr.Peer == "" || pr.Fingerprint != fp {
			t.Errorf("status %d, peer %q, fingerprint %.12s: want the owner's answer for %.12s", status, pr.Peer, pr.Fingerprint, fp)
		}
		var buf bytes.Buffer
		asked.Registry().WriteProm(&buf)
		if ok, bad := promValue(t, buf.String(), `mario_serve_peer_routed_total{result="ok"}`),
			promValue(t, buf.String(), `mario_serve_peer_routed_total{result="error"}`); ok != 1 || bad != 0 {
			t.Errorf("routed ok %v / error %v, want 1 / 0", ok, bad)
		}
	})
}

// FuzzPlanRequestCanonical: arbitrary bytes through the server's strict decode,
// Validate and Fingerprint never panic, and a request that validates is in
// canonical form — encoded again, as a member forwarding it to its owner
// encodes it, it decodes and validates to the same fingerprint. The peer hop
// relies on exactly that: an owner that fingerprints the forwarded request
// differently plans another workload and is refused.
func FuzzPlanRequestCanonical(f *testing.F) {
	for _, seed := range []string{
		`{"model":"LLaMA2-3B","devices":4,"global_batch":16}`,
		`{"model":"LLaMA2-3B","devices":4,"global_batch":16,"micro_batches":[]}`, // used to fingerprint apart from the line above
		`{"model":"LLaMA2-3B","devices":4,"global_batch":16,"tp":1}`,             // used to fingerprint apart from the first line too
		`{"model":"LLaMA2-3B","devices":4,"global_batch":16,"tp":-1}`,
		`{"model":"LLaMA2-3B","devices":4,"global_batch":16,"device_speeds":[],"placement":"AUTO","scheme":" auto "}`,
		`{"model":"GPT3-1.6B","scheme":"v","global_batch":64,"devices":8,"memory":"40G","tp":2,"checkpoint":false,"split_backward":true,` +
			`"micro_batches":[2,1],"min_pp":2,"max_pp":8,"no_prune":true,"no_bnb":true,"device_speeds":[1,1,1,0.8,1,1,1,1],"placement":"CoOpt","workers":3,"timeout_sec":1.5}`,
		`{"model_config":{"Name":"tiny","Hidden":64,"Layers":4,"Heads":4,"SeqLen":128,"Vocab":1000},"devices":2,"global_batch":8,` +
			`"machine":{"Noise":0.04,"ExtraOverhead":0.00018,"MemSlack":1.06,"Hetero":0.05,"Seed":7},"device_speeds":[1,1]}`,
		`{"model":"LLaMA2-3B","devices":4,"global_batch":16}{"no_delta":true}`,
		`{"model":"LLaMA2-3B","devices":4,"global_batch":16} this is not json`,
		`{"model":"LLaMA2-3B","devices":4,"global_batch":16,"no_delta":true}`,
		`null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Options{})
	f.Cleanup(s.Close)
	decode := func(body []byte) (PlanRequest, string, error) {
		return s.decodeRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, fp, err := decode(body)
		if err != nil {
			return
		}
		forwarded, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("a validated request does not encode: %v", err)
		}
		if _, again, err := decode(forwarded); err != nil || again != fp {
			t.Fatalf("%s validated to %.12s; forwarded as %s it gives %.12s, error %v", body, fp, forwarded, again, err)
		}
	})
}
