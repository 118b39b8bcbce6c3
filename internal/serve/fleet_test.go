package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mario"
	"mario/internal/serve/api"
	"mario/internal/serve/client"
	"mario/internal/telemetry"
)

// TestHashRing pins the router's determinism: the ring is a pure function
// of the member set (order-independent), every member owns a share of
// fingerprints, and ownership is stable.
func TestHashRing(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := newHashRing(members)
	r2 := newHashRing([]string{members[2], members[0], members[1], members[0]}) // shuffled + dup
	owned := map[string]int{}
	for i := 0; i < 200; i++ {
		fp := fmt.Sprintf("fingerprint-%d", i)
		o := r1.owner(fp)
		if o2 := r2.owner(fp); o2 != o {
			t.Fatalf("ring not order-independent: %q owned by %s vs %s", fp, o, o2)
		}
		owned[o]++
	}
	for _, m := range members {
		if owned[m] == 0 {
			t.Errorf("member %s owns no fingerprints (distribution %v)", m, owned)
		}
	}
	if (&hashRing{}).owner("x") != "" {
		t.Error("empty ring returned an owner")
	}
}

// promValue extracts one series' value from a Prometheus text exposition.
func promValue(t *testing.T, metrics, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Fatalf("unparseable series %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %s not found", series)
	return 0
}

// TestShardEndpointGone: the sharded fleet search is gone, and so is its
// endpoint. A coordinator of an older build that still dispatches shard
// batches to this member gets a 404 or 405, a dispatch error it already
// recovers from by evaluating the batch itself.
func TestShardEndpointGone(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/shard", "application/json", strings.NewReader(`{"proto":5,"points":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/shard answered %d, want 404 or 405", resp.StatusCode)
	}
}

// TestBodyLimit413 is the request-size satellite: bodies over MaxBodyBytes
// are refused with 413 on the plan and stream endpoints, and the error path
// still returns well-formed JSON.
func TestBodyLimit413(t *testing.T) {
	s := New(Options{MaxBodyBytes: 512})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := make([]int, 4096)
	for i := range big {
		big[i] = 1
	}
	body, _ := json.Marshal(api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16, MicroBatches: big})
	for _, path := range []string{"/v1/plan", "/v1/plan/stream"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var e struct {
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
		if derr != nil || e.Error == "" {
			t.Errorf("%s: 413 body not an error JSON (decode err %v)", path, derr)
		}
	}
}

// TestFleetEndToEndByteIdentity is the acceptance contract over real HTTP: a
// request sent to the member that does not own its workload is answered by
// the owner's real tuner run with plan bytes identical to a direct
// mario.Optimize, and every repeat — routed or sent to the owner — is a cache
// hit on the owner with the same bytes.
func TestFleetEndToEndByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real tuner searches over loopback HTTP")
	}
	aURL, bURL, _, b, cleanup := fleetPair(t)
	defer cleanup()
	req, _ := workloadOwnedBy(t, newHashRing([]string{aURL, bURL}), bURL)
	model, err := req.Validate()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := mario.Optimize(req.Config(0), model)
	if err != nil {
		t.Fatalf("direct optimize: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	ca, cb := client.New(aURL), client.New(bURL)
	fresh, err := ca.Plan(ctx, req)
	if err != nil {
		t.Fatalf("routed plan: %v", err)
	}
	if fresh.Cached || fresh.Peer != bURL {
		t.Fatalf("first request: cached=%v peer=%q, want a fresh answer from %s", fresh.Cached, fresh.Peer, bURL)
	}
	if !bytes.Equal(fresh.Plan, want) {
		t.Fatalf("routed plan differs from direct Optimize (%d vs %d bytes)", len(fresh.Plan), len(want))
	}
	for name, cl := range map[string]*client.Client{"routed": ca, "owner": cb} {
		hit, err := cl.Plan(ctx, req)
		if err != nil {
			t.Fatalf("%s repeat: %v", name, err)
		}
		if !hit.Cached || !bytes.Equal(hit.Plan, want) {
			t.Errorf("%s repeat: cached=%v, want a byte-identical cache hit", name, hit.Cached)
		}
	}
	var buf bytes.Buffer
	b.Registry().WriteProm(&buf)
	if got := promValue(t, buf.String(), "mario_serve_tuner_runs_total"); got != 1 {
		t.Errorf("the owner ran the tuner %v times, want 1", got)
	}
}

// fleetPair boots two routing members A and B, each the other's only peer.
func fleetPair(t testing.TB) (aURL, bURL string, a, b *Server, cleanup func()) {
	t.Helper()
	var ah, bh http.Handler
	as := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { ah.ServeHTTP(w, r) }))
	bs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { bh.ServeHTTP(w, r) }))
	a = New(Options{Self: as.URL, Fleet: []string{bs.URL}})
	b = New(Options{Self: bs.URL, Fleet: []string{as.URL}})
	ah, bh = a.Handler(), b.Handler()
	return as.URL, bs.URL, a, b, func() { as.Close(); bs.Close(); a.Close(); b.Close() }
}

// stubRun is a run function that answers at once with bytes naming the
// member, under a one-span trace, so tests observe which member computed a
// plan without running the tuner.
func stubRun(name string) func(context.Context, api.PlanRequest, *mario.Workload, *telemetry.Tracer, func(api.ProgressEvent)) ([]byte, error) {
	return func(_ context.Context, _ api.PlanRequest, _ *mario.Workload, tracer *telemetry.Tracer, _ func(api.ProgressEvent)) ([]byte, error) {
		tracer.Root(telemetry.PhaseOptimize, name).End()
		return []byte(`{"from":"` + name + `"}`), nil
	}
}

// stubFleetPair is fleetPair with both members' run functions replaced by
// stubRun("a") and stubRun("b").
func stubFleetPair(t *testing.T) (aURL, bURL string, a, b *Server, cleanup func()) {
	t.Helper()
	aURL, bURL, a, b, cleanup = fleetPair(t)
	a.run, b.run = stubRun("a"), stubRun("b")
	return aURL, bURL, a, b, cleanup
}

// workloadsOwnedBy searches batch sizes for n workloads whose fingerprints
// land on the wanted ring member. They are small enough for the tests that run
// the real tuner on them.
func workloadsOwnedBy(t testing.TB, ring *hashRing, owner string, n int) (reqs []api.PlanRequest, fps []string) {
	t.Helper()
	for gbs := 8; gbs <= 1024 && len(reqs) < n; gbs += 8 {
		req := testRequest(gbs)
		model, err := req.Validate()
		if err != nil {
			t.Fatal(err)
		}
		if fp := req.Fingerprint(model); ring.owner(fp) == owner {
			reqs, fps = append(reqs, req), append(fps, fp)
		}
	}
	if len(reqs) < n {
		t.Fatalf("only %d of %d workloads hashed onto the wanted member", len(reqs), n)
	}
	return reqs, fps
}

// workloadOwnedBy is one workload, and its fingerprint, owned by the wanted
// ring member.
func workloadOwnedBy(t testing.TB, ring *hashRing, owner string) (api.PlanRequest, string) {
	t.Helper()
	reqs, fps := workloadsOwnedBy(t, ring, owner, 1)
	return reqs[0], fps[0]
}

// TestFleetPeerRouting pins the consistent-hash router: a request owned by
// the other member is answered by that member (Peer stamped, its bytes
// served), a request owned locally is computed locally, and the routed
// header stops a second hop.
func TestFleetPeerRouting(t *testing.T) {
	aURL, bURL, a, _, cleanup := stubFleetPair(t)
	defer cleanup()
	ring := newHashRing([]string{aURL, bURL})
	ctx := context.Background()
	ca := client.New(aURL)

	reqB, _ := workloadOwnedBy(t, ring, bURL)
	resp, err := ca.Plan(ctx, reqB)
	if err != nil {
		t.Fatalf("routed plan: %v", err)
	}
	if resp.Peer != bURL {
		t.Fatalf("peer = %q, want %q", resp.Peer, bURL)
	}
	if string(resp.Plan) != `{"from":"b"}` {
		t.Fatalf("routed plan bytes %s, want b's", resp.Plan)
	}

	reqA, _ := workloadOwnedBy(t, ring, aURL)
	resp, err = ca.Plan(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Peer != "" || string(resp.Plan) != `{"from":"a"}` {
		t.Fatalf("locally owned request answered by %q with %s", resp.Peer, resp.Plan)
	}

	// The loop guard: a pre-routed request for b's workload must be
	// answered by a itself, not forwarded again.
	resp, err = ca.PlanRouted(ctx, reqB, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Peer != "" || string(resp.Plan) != `{"from":"a"}` {
		t.Fatalf("routed-header request still forwarded: peer=%q plan=%s", resp.Peer, resp.Plan)
	}

	var buf bytes.Buffer
	a.Registry().WriteProm(&buf)
	if !strings.Contains(buf.String(), `mario_serve_peer_routed_total{result="ok"} 1`) {
		t.Error("routing success not counted")
	}
}

// TestFleetPeerRoutingTrace: ?trace=1 travels with the forwarded call. A fresh
// traced request sent to the member that does not own the workload comes back
// with the trace of the run the owner made for it — the bytes the owner's
// flight recorder holds under that fingerprint — and a repeat, answered from
// the owner's cache, carries none.
func TestFleetPeerRoutingTrace(t *testing.T) {
	aURL, bURL, _, b, cleanup := stubFleetPair(t)
	defer cleanup()
	reqB, fp := workloadOwnedBy(t, newHashRing([]string{aURL, bURL}), bURL)
	ca := client.New(aURL)
	ca.Trace = true
	ctx := context.Background()

	fresh, err := ca.Plan(ctx, reqB)
	if err != nil {
		t.Fatalf("traced routed plan: %v", err)
	}
	if fresh.Peer != bURL || fresh.Cached {
		t.Fatalf("peer=%q cached=%v, want a fresh answer from %s", fresh.Peer, fresh.Cached, bURL)
	}
	var want []byte
	for _, rec := range b.FlightRecorder().Recent() {
		if rec.Fingerprint == fp {
			want, _ = json.Marshal(rec.Trace)
		}
	}
	if want == nil {
		t.Fatal("the owner's flight recorder holds no run for the fingerprint")
	}
	if !bytes.Equal(fresh.Trace, want) {
		t.Fatalf("forwarded trace %s, the owner recorded %s", fresh.Trace, want)
	}

	hit, err := ca.Plan(ctx, reqB)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Peer != bURL || !hit.Cached || len(hit.Trace) != 0 {
		t.Fatalf("repeat: peer=%q cached=%v trace=%d bytes, want a peer cache hit without a trace", hit.Peer, hit.Cached, len(hit.Trace))
	}
}

// TestFleetPeerRoutingFallback: routing is an optimization, so an owner that
// cannot be reached — or that answers 200 with something that is not this
// request's plan, or not one JSON value and nothing else — costs one counted
// routing error and a local computation, never a failed or a wrong response.
func TestFleetPeerRoutingFallback(t *testing.T) {
	// answers is an owner that replies 200 with body(fp) to a routed request
	// for the workload fingerprinted fp.
	answers := func(body func(fp string) string) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req api.PlanRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("forwarded request: %v", err)
			}
			model, err := req.Validate()
			if err != nil || r.Header.Get(api.RoutedHeader) == "" {
				t.Errorf("forwarded request: validate error %v, routed header %q", err, r.Header.Get(api.RoutedHeader))
			}
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, body(req.Fingerprint(model)))
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	dead := httptest.NewServer(nil)
	dead.Close() // its address no longer listens

	for _, tc := range []struct{ name, owner string }{
		{"owner dead", dead.URL},
		{"owner answers for another fingerprint", answers(func(string) string {
			return `{"fingerprint":"another workload","cached":true,"plan":{"from":"b"}}`
		})},
		{"owner answers plan null", answers(func(fp string) string {
			return `{"fingerprint":"` + fp + `","cached":true,"plan":null}`
		})},
		{"owner answers without a plan", answers(func(fp string) string {
			return `{"fingerprint":"` + fp + `","cached":true}`
		})},
		{"owner answers with bytes behind the envelope", answers(func(fp string) string {
			return `{"fingerprint":"` + fp + `","cached":true,"plan":{"from":"b"}}{"plan":{"from":"c"}}`
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ah http.Handler
			as := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { ah.ServeHTTP(w, r) }))
			defer as.Close()
			a := New(Options{Self: as.URL, Fleet: []string{tc.owner}})
			defer a.Close()
			a.run = stubRun("a")
			ah = a.Handler()

			req, fp := workloadOwnedBy(t, newHashRing([]string{as.URL, tc.owner}), tc.owner)
			resp, err := client.New(as.URL).Plan(context.Background(), req)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			if resp.Peer != "" || resp.Fingerprint != fp || string(resp.Plan) != `{"from":"a"}` {
				t.Fatalf("peer=%q fingerprint=%.12s plan=%s, want a's own plan for %.12s", resp.Peer, resp.Fingerprint, resp.Plan, fp)
			}
			var buf bytes.Buffer
			a.Registry().WriteProm(&buf)
			if got := promValue(t, buf.String(), `mario_serve_peer_routed_total{result="error"}`); got != 1 {
				t.Errorf("%v routing errors counted, want 1", got)
			}
			if got := promValue(t, buf.String(), `mario_serve_peer_routed_total{result="ok"}`); got != 0 {
				t.Errorf("%v routed answers counted as ok, want 0", got)
			}
		})
	}
}
