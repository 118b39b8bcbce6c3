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
	"mario/internal/serve/loadgen"
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
	plan := benchPlan()
	s := New(Options{Workers: 2, QueueDepth: 64})
	s.run = func(ctx context.Context, req PlanRequest, tracer *telemetry.Tracer, progress func(ProgressEvent)) ([]byte, error) {
		root := tracer.Root(telemetry.PhaseOptimize, "")
		search := root.Child(telemetry.PhaseSearch, "")
		p := search.Child(telemetry.PhasePoint, "0000")
		p.Child(telemetry.PhaseSim, "").End()
		p.End()
		search.End()
		root.End()
		return plan, nil
	}
	return s, httptest.NewServer(s.Handler())
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

// reportLoadgen folds a load-run's quantiles into the benchmark output;
// benchjson preserves the custom units under "extra" in BENCH_serve.json.
func reportLoadgen(b *testing.B, res *loadgen.Result) {
	b.Helper()
	if res.Errors > 0 || res.Rej429 > 0 || res.Rej503 > 0 {
		b.Fatalf("load run degraded: %+v", res)
	}
	b.ReportMetric(float64(res.P50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(res.P99.Nanoseconds()), "p99-ns")
	b.ReportMetric(res.ReqPerSec, "req/s")
	b.ReportMetric(float64(res.Cached)/float64(res.Total), "cache-rate")
}

// BenchmarkServeLoadgenBurst measures the request path under concurrent
// mixed load on one member: 4 workload fingerprints cycled by 16 in-flight
// clients, so after the first misses the run is the cache-hit steady state.
// p50/p99/req-s land in BENCH_serve.json via the custom metrics.
func BenchmarkServeLoadgenBurst(b *testing.B) {
	s, ts := benchServer()
	defer ts.Close()
	defer s.Close()
	base := testRequest(16)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := loadgen.Run(context.Background(), loadgen.Options{
		Targets:     []string{ts.URL},
		Workloads:   loadgen.MixedWorkloads(base, 4),
		Requests:    b.N,
		Concurrency: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	reportLoadgen(b, res)
}

// BenchmarkServeLoadgenFleet is the burst against a routed three-member
// loopback fleet: requests spray across all members and consistent-hash
// routing forwards each workload to its owner, so the numbers price the
// extra peer hop on top of the single-member path.
func BenchmarkServeLoadgenFleet(b *testing.B) {
	const members = 3
	plan := benchPlan()
	handlers := make([]http.Handler, members)
	urls := make([]string, members)
	var tss []*httptest.Server
	for i := range handlers {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		tss = append(tss, ts)
		urls[i] = ts.URL
	}
	for i := range handlers {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		s := New(Options{Self: urls[i], Fleet: peers, Workers: 2, QueueDepth: 64})
		s.run = func(ctx context.Context, req PlanRequest, tracer *telemetry.Tracer, progress func(ProgressEvent)) ([]byte, error) {
			return plan, nil
		}
		handlers[i] = s.Handler()
		defer s.Close()
	}
	defer func() {
		for _, ts := range tss {
			ts.Close()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	res, err := loadgen.Run(context.Background(), loadgen.Options{
		Targets:     urls,
		Workloads:   loadgen.MixedWorkloads(testRequest(16), 4),
		Requests:    b.N,
		Concurrency: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Peer)/float64(res.Total), "peer-rate")
	reportLoadgen(b, res)
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
