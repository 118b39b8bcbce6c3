package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mario"
	"mario/internal/serve/api"
	"mario/internal/serve/client"
	"mario/internal/telemetry"
)

// benchPlan is the body every bench stub answers with: the real plan of
// testRequest(16) (LLaMA2-3B, 4 devices), computed once. A placeholder body
// of a few bytes would price the request path without the one cost that
// scales — moving the plan — which is most of what a cache hit does.
var benchPlan = sync.OnceValue(func() []byte {
	req := testRequest(16)
	model, err := req.Validate()
	if err != nil {
		panic(err)
	}
	plan, err := mario.Optimize(req.Config(1), model)
	if err != nil {
		panic(err)
	}
	data, err := json.Marshal(plan)
	if err != nil {
		panic(err)
	}
	return data
})

// benchServer builds a server whose run stub returns instantly with a
// small traced span tree and a real plan's bytes — the service-layer
// overhead (HTTP, singleflight, cache, metrics, flight recorder, moving the
// body) is the thing under test, not the tuner.
func benchServer() (*Server, *httptest.Server) {
	s := New(Options{Workers: 2, QueueDepth: 64})
	s.run = benchRun
	return s, httptest.NewServer(s.Handler())
}

// benchRun is the bench servers' run stub.
func benchRun(ctx context.Context, req api.PlanRequest, _ *mario.Workload, tracer *telemetry.Tracer, progress func(api.ProgressEvent)) ([]byte, error) {
	root := tracer.Root(telemetry.PhaseOptimize, "")
	search := root.Child(telemetry.PhaseSearch, "")
	p := search.Child(telemetry.PhasePoint, "0000")
	p.Child(telemetry.PhaseSim, "").End()
	p.End()
	search.End()
	root.End()
	return benchPlan(), nil
}

func benchPost(b *testing.B, url string, body []byte) {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServePlanCacheHit measures the steady-state request path: the
// plan is in cache, so one request costs routing, fingerprinting, a cache
// lookup and response encoding.
func BenchmarkServePlanCacheHit(b *testing.B) {
	s, ts := benchServer()
	defer ts.Close()
	defer s.Close()
	body, _ := json.Marshal(testRequest(16))
	benchPost(b, ts.URL+"/v1/plan", body) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/plan", body)
	}
}

// BenchmarkClientPlanHit is the cache hit as a caller pays for it:
// client.Plan, so the request is encoded and the answer is read into a
// PlanResponse — BenchmarkServePlanCacheHit discards the body unread, which
// is how the client's read once sat outside this ledger at 60 % of a
// serve-hot process.
func BenchmarkClientPlanHit(b *testing.B) {
	s, ts := benchServer()
	defer ts.Close()
	defer s.Close()
	cl, req := client.New(ts.URL), testRequest(16)
	benchClientPlan(b, cl, req, "") // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchClientPlan(b, cl, req, "")
	}
}

// BenchmarkServePlanPeerHit is the hit that takes the peer hop, two thirds of
// serve-hot's requests: the request goes to the member that does not own the
// workload, which fingerprints it, forwards it, reads the owner's answer and
// writes it into its own, which the client reads.
func BenchmarkServePlanPeerHit(b *testing.B) {
	aURL, bURL, a, owner, cleanup := fleetPair(b)
	defer cleanup()
	a.run, owner.run = benchRun, benchRun
	req, _ := workloadOwnedBy(b, newHashRing([]string{aURL, bURL}), bURL)
	cl := client.New(aURL)
	benchClientPlan(b, cl, req, bURL) // warm the owner's cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchClientPlan(b, cl, req, bURL)
	}
}

// benchClientPlan is one client.Plan that must come back from peer ("" for the
// member asked) with the bench plan.
func benchClientPlan(b *testing.B, cl *client.Client, req api.PlanRequest, peer string) {
	b.Helper()
	resp, err := cl.Plan(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	if resp.Peer != peer || len(resp.Plan) != len(benchPlan()) {
		b.Fatalf("answered by %q with %d plan bytes, want %q and %d", resp.Peer, len(resp.Plan), peer, len(benchPlan()))
	}
}

// BenchmarkServePlanFresh measures a full miss: every request carries a
// distinct global batch, so each one runs the (instant) stub through the
// worker pool, records a flight, and populates the cache.
func BenchmarkServePlanFresh(b *testing.B) {
	s, ts := benchServer()
	defer ts.Close()
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(testRequest(8 + 8*i)) // unique fingerprint per iteration
		benchPost(b, ts.URL+"/v1/plan", body)
	}
}

// BenchmarkServePlanTraced is the fresh path with ?trace=1: adds the span
// snapshot, canonical-ID derivation and trace JSON embedding.
func BenchmarkServePlanTraced(b *testing.B) {
	s, ts := benchServer()
	defer ts.Close()
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(testRequest(8 + 8*i))
		benchPost(b, ts.URL+"/v1/plan?trace=1", body)
	}
}

// BenchmarkServeMetricsScrape prices one /metrics render of the full
// serve + search registry.
func BenchmarkServeMetricsScrape(b *testing.B) {
	s, ts := benchServer()
	defer ts.Close()
	defer s.Close()
	body, _ := json.Marshal(testRequest(16))
	benchPost(b, ts.URL+"/v1/plan", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
