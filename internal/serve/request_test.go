package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mario"
	"mario/internal/cost"
	"mario/internal/profile"
	"mario/internal/serve/api"
	"mario/internal/telemetry"
)

// TestRequestValidateErrors is the one table of reject paths: every way a
// workload can be wrong, with the message an HTTP client reads in the 400 body.
// All but the service's own checks (the model reference, timeout_sec) are
// mario.Resolve's, so each case is also held to the library's door —
// mario.Optimize of the same Config returns the same error, where it used to
// search, or panic — and to the service's: a 400, and nothing searched.
func TestRequestValidateErrors(t *testing.T) {
	valid := func() api.PlanRequest {
		return api.PlanRequest{Model: "LLaMA2-3B", Devices: 8, GlobalBatch: 64}
	}
	hardware := func(mut func(*cost.Hardware)) func(*api.PlanRequest) {
		return func(r *api.PlanRequest) {
			hw := cost.A100_40G
			mut(&hw)
			r.Hardware = &hw
		}
	}
	machine := func(mut func(*profile.MachineSpec)) func(*api.PlanRequest) {
		return func(r *api.PlanRequest) {
			m := profile.DefaultMachine
			mut(&m)
			r.Machine = &m
		}
	}
	cases := []struct {
		name    string
		mut     func(*api.PlanRequest)
		wantErr string
		// serviceOnly: the check is the request's own, not the resolver's.
		// libraryOnly: the value has no JSON spelling (a non-finite number).
		serviceOnly, libraryOnly bool
	}{
		{name: "model and model_config", mut: func(r *api.PlanRequest) {
			m := mario.Model("LLaMA2-3B")
			r.ModelConfig = &m
		}, wantErr: "model or model_config, not both", serviceOnly: true},
		{name: "unknown model", mut: func(r *api.PlanRequest) { r.Model = "GPT9-999T" }, wantErr: `unknown model "GPT9-999T"`, serviceOnly: true},
		{name: "missing model", mut: func(r *api.PlanRequest) { r.Model = "" }, wantErr: "model or model_config is required", serviceOnly: true},
		{name: "negative timeout", mut: func(r *api.PlanRequest) { r.TimeoutSec = -1 }, wantErr: "timeout_sec must not be negative", serviceOnly: true},
		{name: "bad model_config", mut: func(r *api.PlanRequest) {
			r.Model, r.ModelConfig = "", &cost.ModelConfig{Name: "tiny", Hidden: 64, Layers: 0, Heads: 4, SeqLen: 128, Vocab: 1000}
		}, wantErr: "layer count must be positive"},
		{name: "zero devices", mut: func(r *api.PlanRequest) { r.Devices = 0 }, wantErr: "must be positive"},
		{name: "negative global batch", mut: func(r *api.PlanRequest) { r.GlobalBatch = -1 }, wantErr: "must be positive"},
		// Both used to resolve: the first kept the pipeline-depth divisor scan
		// running for more than 20 s, the second panicked sizing the schedule.
		{name: "devices above the bound", mut: func(r *api.PlanRequest) { r.Devices = 1099511627791 }, wantErr: "devices (1099511627791) must be at most 16384"},
		{name: "global batch above the bound", mut: func(r *api.PlanRequest) { r.GlobalBatch = 4611686018427387904 }, wantErr: "global batch (4611686018427387904) must be at most 65536"},
		{name: "bad scheme", mut: func(r *api.PlanRequest) { r.Scheme = "zigzag" }, wantErr: "unknown scheme"},
		{name: "scheme without a generator", mut: func(r *api.PlanRequest) { r.Scheme = "hanayo" }, wantErr: "unknown scheme"},
		{name: "bad memory", mut: func(r *api.PlanRequest) { r.Memory = "lots" }, wantErr: "invalid memory spec"},
		{name: "infinite memory", mut: func(r *api.PlanRequest) { r.Memory = "inf" }, wantErr: "not a finite byte count"},
		{name: "negative tp", mut: func(r *api.PlanRequest) { r.TP = -1 }, wantErr: "tp must not be negative"},
		{name: "zero micro batch", mut: func(r *api.PlanRequest) { r.MicroBatches = []int{4, 0} }, wantErr: "micro-batch sizes must be positive"},
		// Both used to resolve, and the search enumerated and probed every
		// listed size: a full body of copies outlasted the default deadline.
		{name: "repeated micro batch", mut: func(r *api.PlanRequest) { r.MicroBatches = []int{2, 4, 2} }, wantErr: "micro-batch sizes must be distinct (2 is listed twice)"},
		{name: "too many micro batches", mut: func(r *api.PlanRequest) { r.MicroBatches = microBatchRange(121) }, wantErr: "micro-batch sizes (121 listed) must be at most 120"},
		{name: "speeds of another cluster", mut: func(r *api.PlanRequest) { r.DeviceSpeeds = []float64{1, 0.8} }, wantErr: "2 device speeds for 8 devices"},
		{name: "negative speed", mut: func(r *api.PlanRequest) { r.DeviceSpeeds = []float64{1, 1, 1, -0.5, 1, 1, 1, 1} }, wantErr: "device 3 speed -0.5 must be positive"},
		{name: "speed with an infinite slowdown", mut: func(r *api.PlanRequest) { r.DeviceSpeeds = []float64{1, 1, 1, 1, 1, 1e-310, 1, 1} }, wantErr: "device 5 speed 1e-310 is too small"},
		{name: "NaN speed", mut: func(r *api.PlanRequest) { r.DeviceSpeeds = []float64{1, 1, math.NaN(), 1, 1, 1, 1, 1} }, wantErr: "device 2 speed NaN must be positive", libraryOnly: true},
		{name: "bad placement", mut: func(r *api.PlanRequest) { r.Placement = "sideways" }, wantErr: "unknown placement mode"},
		{name: "min_pp above the cluster", mut: func(r *api.PlanRequest) { r.MinPP = 16 }, wantErr: "no pipeline depth in min_pp..max_pp [16, 8] divides 8 devices"},
		{name: "no pp range divisor", mut: func(r *api.PlanRequest) { r.MinPP, r.MaxPP = 5, 7 }, wantErr: "no pipeline depth in min_pp..max_pp [5, 7] divides 8 devices"},
		{name: "empty hardware", mut: func(r *api.PlanRequest) { r.Hardware = &cost.Hardware{} }, wantErr: "hardware FLOPS must be positive"},
		{name: "negative FLOPS", mut: hardware(func(h *cost.Hardware) { h.FLOPS = -140e12 }), wantErr: "hardware FLOPS must be positive"},
		{name: "zero link bandwidth", mut: hardware(func(h *cost.Hardware) { h.LinkBandwidth = 0 }), wantErr: "hardware LinkBandwidth must be positive"},
		{name: "zero backward ratio", mut: hardware(func(h *cost.Hardware) { h.BackwardRatio = 0 }), wantErr: "hardware BackwardRatio must be positive"},
		{name: "zero hardware memory", mut: hardware(func(h *cost.Hardware) { h.MemBytes = 0 }), wantErr: "hardware MemBytes must be positive"},
		{name: "negative link latency", mut: hardware(func(h *cost.Hardware) { h.LinkLatency = -1e-6 }), wantErr: "hardware LinkLatency must not be negative"},
		{name: "negative launch overhead", mut: hardware(func(h *cost.Hardware) { h.LaunchOverhead = -1e-6 }), wantErr: "hardware LaunchOverhead must not be negative"},
		{name: "negative framework memory", mut: hardware(func(h *cost.Hardware) { h.FrameworkMem = -1 }), wantErr: "hardware FrameworkMem must not be negative"},
		{name: "infinite FLOPS", mut: hardware(func(h *cost.Hardware) { h.FLOPS = math.Inf(1) }), wantErr: "hardware FLOPS must be finite", libraryOnly: true},
		{name: "noise of the whole duration", mut: machine(func(m *profile.MachineSpec) { m.Noise = 1 }), wantErr: "machine Noise must be below 1"},
		{name: "hetero above one", mut: machine(func(m *profile.MachineSpec) { m.Hetero = 1.5 }), wantErr: "machine Hetero must be below 1"},
		{name: "negative noise", mut: machine(func(m *profile.MachineSpec) { m.Noise = -0.1 }), wantErr: "machine Noise must not be negative"},
		{name: "negative overhead", mut: machine(func(m *profile.MachineSpec) { m.ExtraOverhead = -1e-6 }), wantErr: "machine ExtraOverhead must not be negative"},
		{name: "negative memory slack", mut: machine(func(m *profile.MachineSpec) { m.MemSlack = -1 }), wantErr: "machine MemSlack must not be negative"},
		{name: "NaN memory slack", mut: machine(func(m *profile.MachineSpec) { m.MemSlack = math.NaN() }), wantErr: "machine MemSlack must be finite", libraryOnly: true},
	}

	s := New(Options{})
	defer s.Close()
	s.run = func(_ context.Context, req api.PlanRequest, _ *mario.Workload, _ *telemetry.Tracer, _ func(api.ProgressEvent)) ([]byte, error) {
		t.Errorf("a search ran for %+v", req)
		return nil, errors.New("unreachable")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := valid()
			tc.mut(&r)
			if _, err := r.Validate(); err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() error = %q, want it to contain %q", err, tc.wantErr)
			}
			if !tc.serviceOnly {
				model := mario.Model("LLaMA2-3B")
				if r.ModelConfig != nil {
					model = *r.ModelConfig
				}
				if plan, err := mario.Optimize(r.Config(1), model); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("mario.Optimize = %v, %v; want an error containing %q", plan, err, tc.wantErr)
				}
			}
			if !tc.libraryOnly {
				body, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				for _, path := range []string{"/v1/plan", "/v1/plan/stream"} {
					resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					var answer struct{ Error string }
					err = json.NewDecoder(resp.Body).Decode(&answer)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(answer.Error, tc.wantErr) {
						t.Errorf("%s answered %d %q (%v), want 400 with %q", path, resp.StatusCode, answer.Error, err, tc.wantErr)
					}
				}
			}
		})
	}
}

// microBatchRange returns the micro-batch sizes 1..n.
func microBatchRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// bareBody is the workload the spelling tests respell: nothing but what is
// required.
const bareBody = `{"model":"LLaMA2-3B","devices":4,"global_batch":16}`

// respelled is bareBody with one more field.
func respelled(field string) string {
	return strings.TrimSuffix(bareBody, "}") + "," + field + "}"
}

// resolveBody decodes a request body the way the server does and resolves it.
func resolveBody(t *testing.T, body string) (api.PlanRequest, *mario.Workload) {
	t.Helper()
	var r api.PlanRequest
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	wl, err := r.Resolve()
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	return r, wl
}

// TestEquivalentSpellingsOneWorkload: a default written out is the default.
// Each of these bodies used to be a workload of its own — a fingerprint, a
// search and a cache entry apart from the bare request — for a plan that is the
// bare request's byte for byte; "micro_batches":[] and "tp":1 were found and
// closed one at a time, each with a branch in Validate. The fingerprint is now
// the hash of what the request resolves to, so the class is closed by
// construction; this test keeps the members that were measured. The last two
// are the request's run hints, which have no place in a Workload to get into.
func TestEquivalentSpellingsOneWorkload(t *testing.T) {
	a100, err := json.Marshal(cost.A100_40G)
	if err != nil {
		t.Fatal(err)
	}
	defaultMachine, err := json.Marshal(profile.DefaultMachine)
	if err != nil {
		t.Fatal(err)
	}
	spellings := []string{
		`"machine":{}`,
		`"machine":` + string(defaultMachine),
		`"min_pp":-3`,
		`"min_pp":4`,
		`"max_pp":4`,
		`"max_pp":100`,
		`"memory":"40G"`, // what the quick-start curl lines send
		`"hardware":` + string(a100),
		`"micro_batches":[1,2,4,8,16,32]`,
		// On a homogeneous cluster the uniform split is the one point auto
		// explores (tuner.placementModes); Space.WithDefaults says so.
		`"placement":"uniform"`,
		`"tp":1`,
		`"micro_batches":[]`,
		`"device_speeds":[1,1,1,1]`,
		`"scheme":" auto "`,
		`"workers":7`,
		`"timeout_sec":3`,
	}
	bareReq, bare := resolveBody(t, bareBody)
	// The one pinned fingerprint value. It was first the hash of the
	// request's canonical spelling (4dda982b5617); it was re-taken when the
	// fingerprint became the hash of the resolved workload, and again when
	// tuner.Space took SplitBackward and MaxRounds and gave up Workers and
	// Chunks. It moves when the resolution of this request moves — a new
	// default, a new field the search reads — and then every cached plan and
	// every ring owner moves with it.
	if fp := bare.Fingerprint(); !strings.HasPrefix(fp, pinnedBareFingerprint) {
		t.Errorf("the bare request's fingerprint moved: %.12s, pinned %s", fp, pinnedBareFingerprint)
	}
	var want []byte
	if !testing.Short() {
		plan, err := mario.Optimize(bareReq.Config(1), bare.Model)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = json.Marshal(plan); err != nil {
			t.Fatal(err)
		}
	}
	for _, field := range spellings {
		req, wl := resolveBody(t, respelled(field))
		if wl.Fingerprint() != bare.Fingerprint() {
			t.Errorf("%s fingerprints as %.12s, the bare request as %.12s", field, wl.Fingerprint(), bare.Fingerprint())
		}
		if testing.Short() {
			continue
		}
		plan, err := mario.Optimize(req.Config(1), wl.Model)
		if err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		if got, err := json.Marshal(plan); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s plans %d bytes (error %v), the bare request %d: one fingerprint for two plans", field, len(got), err, len(want))
		}
	}
	// And the converse, for one field of each kind: what changes the search
	// changes the fingerprint.
	for _, field := range []string{`"tp":2`, `"micro_batches":[1,2]`, `"min_pp":2`, `"memory":"80G"`, `"scheme":"V"`,
		`"placement":"coopt"`, `"device_speeds":[1,1,0.8,1]`, `"split_backward":true`,
		`"checkpoint":true`, `"machine":{"Noise":0.1}`} {
		if _, wl := resolveBody(t, respelled(field)); wl.Fingerprint() == bare.Fingerprint() {
			t.Errorf("%s shares the bare request's fingerprint", field)
		}
	}
}

const pinnedBareFingerprint = "fe11a3a0613a"

// TestRequestConfigPlumbing: every strategy knob on the wire reaches the
// optimizer config — a silently dropped field would make the daemon ignore
// what the client asked for.
func TestRequestConfigPlumbing(t *testing.T) {
	r := api.PlanRequest{
		Model: "LLaMA2-3B", Devices: 8, GlobalBatch: 64,
		SplitBackward: true,
	}
	if _, err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	conf := r.Config(3)
	if !conf.SplitBackward {
		t.Error("config dropped the SplitBackward strategy knob")
	}
	if conf.Workers != 3 {
		t.Errorf("config.Workers = %d, want the resolved value 3", conf.Workers)
	}
}

// TestRequestTimeout: timeout_sec resolves against the server's default and
// ceiling. A request past the ceiling gets the ceiling, however large: from
// about 9.2e9 s on, the nanoseconds used to overflow a Duration into a negative
// deadline and an immediate 504.
func TestRequestTimeout(t *testing.T) {
	const def, ceil = 5 * time.Minute, 15 * time.Minute
	for _, tc := range []struct {
		sec  float64
		max  time.Duration
		want time.Duration
	}{
		{sec: 0, max: ceil, want: def},
		{sec: 1.5, max: ceil, want: 1500 * time.Millisecond},
		{sec: 900, max: ceil, want: ceil},
		{sec: 1e10, max: ceil, want: ceil},
		{sec: 1e300, max: ceil, want: ceil},
		{sec: 0, max: time.Minute, want: time.Minute},
		{sec: 3600, max: 0, want: time.Hour},
		{sec: 1e300, max: 0, want: math.MaxInt64},
	} {
		r := api.PlanRequest{TimeoutSec: tc.sec}
		if got := r.Timeout(def, tc.max); got != tc.want {
			t.Errorf("timeout_sec %g, ceiling %v: deadline %v, want %v", tc.sec, tc.max, got, tc.want)
		}
	}
}

// TestEmptyMicroBatchesIsAbsent: "micro_batches":[] is the absent field, on a
// standalone server and through the peer hop. It used to be a workload of its
// own: fingerprinted as [] where the absent field is null, dropped when a
// member re-encoded the request for its owner — which then planned the other
// workload, answered under the other fingerprint and was refused, one
// discarded search and one routing error per request — and finally answered
// 500 by the asked member, because the tuner takes its default micro-batch
// sizes only for nil.
func TestEmptyMicroBatchesIsAbsent(t *testing.T) {
	const absentBody = bareBody
	emptyBody := respelled(`"micro_batches":[]`)
	_, wl := resolveBody(t, absentBody)
	fp := wl.Fingerprint() // the empty list's too: TestEquivalentSpellingsOneWorkload
	post := func(url, body string) (int, api.PlanResponse) {
		t.Helper()
		resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr api.PlanResponse
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
		asked.reg.WriteProm(&buf)
		if ok, bad := promValue(t, buf.String(), `mario_serve_peer_routed_total{result="ok"}`),
			promValue(t, buf.String(), `mario_serve_peer_routed_total{result="error"}`); ok != 1 || bad != 0 {
			t.Errorf("routed ok %v / error %v, want 1 / 0", ok, bad)
		}
	})
}

// respell writes a resolved workload back as a Config — every default spelled
// out. Only tests need the inverse: nothing in the program re-reads a
// resolution as a request.
func respell(w *mario.Workload) mario.Config {
	conf := mario.Config{
		PipelineScheme:  "Auto",
		GlobalBatchSize: w.Space.GlobalBatch,
		NumDevices:      w.Space.Devices,
		TP:              w.Space.TP,
		SplitBackward:   w.Space.SplitBackward,
		MicroBatchSizes: w.Space.MicroBatches,
		MinPP:           w.Space.MinPP,
		MaxPP:           w.Space.MaxPP,
		Machine:         w.Machine,
		DeviceSpeeds:    w.Space.DeviceSpeeds,
		Placement:       string(w.Space.Placement),
		Hardware:        &w.Hardware,
		NoBnB:           w.Space.NoBnB,
	}
	if len(w.Space.Schemes) == 1 {
		conf.PipelineScheme = string(w.Space.Schemes[0])
	}
	if len(w.Space.Checkpoint) == 1 {
		conf.Checkpoint = &w.Space.Checkpoint[0]
	}
	return conf
}

// FuzzPlanRequestCanonical: arbitrary bytes through the server's strict decode
// and Resolve never panic, and a request that resolves keeps its identity
// through the peer hop — encoded again, as a member forwarding it to its owner
// encodes it, it decodes and resolves to the same fingerprint, without any
// canonical form having been written into it. The peer hop relies on exactly
// that: an owner that fingerprints the forwarded request differently plans
// another workload and is refused. Resolve is also idempotent: the resolution,
// spelled back as a Config, resolves to itself.
func FuzzPlanRequestCanonical(f *testing.F) {
	a100, _ := json.Marshal(cost.A100_40G)
	defaultMachine, _ := json.Marshal(profile.DefaultMachine)
	tooMany, _ := json.Marshal(microBatchRange(121))
	for _, seed := range []string{
		bareBody,
		respelled(`"micro_batches":[]`), // used to fingerprint apart from the line above
		respelled(`"tp":1`),             // and so did every line down to the blank one
		respelled(`"machine":{}`),
		respelled(`"machine":` + string(defaultMachine)),
		respelled(`"min_pp":-3`),
		respelled(`"min_pp":4,"max_pp":4`),
		respelled(`"max_pp":100`),
		respelled(`"memory":"40G"`),
		respelled(`"hardware":` + string(a100)),
		respelled(`"micro_batches":[1,2,4,8,16,32]`),
		respelled(`"placement":"uniform"`),
		respelled(`"device_speeds":[],"placement":"AUTO","scheme":" auto "`),

		respelled(`"tp":-1`),
		respelled(`"hardware":{}`),
		respelled(`"hardware":{"FLOPS":-1}`),
		respelled(`"machine":{"Noise":1}`),
		respelled(`"memory":"inf"`),
		respelled(`"micro_batches":[1,2,1]`),
		respelled(`"micro_batches":` + string(tooMany)),
		`{"model":"GPT3-1.6B","scheme":"v","global_batch":64,"devices":8,"memory":"40G","tp":2,"checkpoint":false,"split_backward":true,` +
			`"micro_batches":[2,1],"min_pp":2,"max_pp":8,"device_speeds":[1,1,1,0.8,1,1,1,1],"placement":"CoOpt","workers":3,"timeout_sec":1.5}`,
		`{"model_config":{"Name":"tiny","Hidden":64,"Layers":4,"Heads":4,"SeqLen":128,"Vocab":1000},"devices":2,"global_batch":8,` +
			`"machine":{"Noise":0.04,"ExtraOverhead":0.00018,"MemSlack":1.06,"Hetero":0.05,"Seed":7},"device_speeds":[1,1]}`,
		bareBody + `{"no_delta":true}`,
		bareBody + ` this is not json`,
		respelled(`"no_delta":true`),
		respelled(`"no_prune":true`),
		respelled(`"no_bnb":true`),
		`null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Options{})
	f.Cleanup(s.Close)
	decode := func(body []byte) (api.PlanRequest, *mario.Workload, error) {
		return s.decodeRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, wl, err := decode(body)
		if err != nil {
			return
		}
		fp := wl.Fingerprint()
		forwarded, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("a resolved request does not encode: %v", err)
		}
		if _, again, err := decode(forwarded); err != nil || again.Fingerprint() != fp {
			t.Fatalf("%s resolved to %.12s; forwarded as %s it gives %v, error %v", body, fp, forwarded, again, err)
		}
		if again, err := mario.Resolve(respell(wl), wl.Model); err != nil || again.Fingerprint() != fp {
			t.Fatalf("%s resolved to %.12s; the resolution, respelled, gives %v, error %v", body, fp, again, err)
		}
	})
}

// TestHugeMicroBatchAnswersPlan: a micro-batch size whose product with the DP
// degree wraps int (2^62 × dp 4 is 2^64, which wraps to 0) is an indivisible
// grid point, not a division by zero on a worker goroutine that takes the
// daemon down. The request is answered with the plan of the size that divides
// the batch.
func TestHugeMicroBatchAnswersPlan(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"model":"GPT3-1.6B","devices":8,"global_batch":64,"min_pp":2,"micro_batches":[1,4611686018427387904]}`
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr api.PlanResponse
	err = json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("answered %d (%v), want 200", resp.StatusCode, err)
	}
	plan, err := mario.LoadPlan(pr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best.MicroBatch != 1 {
		t.Errorf("best plan has micro-batch %d, want 1", plan.Best.MicroBatch)
	}
}
