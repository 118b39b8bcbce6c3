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
	"sync"
	"testing"
	"time"

	"mario"
	"mario/internal/serve/api"
	"mario/internal/telemetry"
)

// testRequest returns a valid request; gbs varies the fingerprint.
func testRequest(gbs int) api.PlanRequest {
	return api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: gbs, Memory: "40G", MicroBatches: []int{1, 2}}
}

// blockingRun is a run stub whose executions park until released. It lets
// tests hold the worker pool in a known state without real tuner work.
type blockingRun struct {
	started chan string   // receives the request fingerprint-ish label when a run starts
	release chan struct{} // closed (or sent to) to let runs finish
	result  func(req api.PlanRequest) ([]byte, error)
}

func newBlockingRun() *blockingRun {
	return &blockingRun{
		started: make(chan string, 32),
		release: make(chan struct{}),
		result: func(req api.PlanRequest) ([]byte, error) {
			return []byte(fmt.Sprintf(`{"gbs":%d}`, req.GlobalBatch)), nil
		},
	}
}

func (b *blockingRun) run(ctx context.Context, req api.PlanRequest, _ *mario.Workload, tracer *telemetry.Tracer, progress func(api.ProgressEvent)) ([]byte, error) {
	b.started <- fmt.Sprintf("gbs=%d", req.GlobalBatch)
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.result(req)
}

func postPlan(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// TestSingleflightCollapse sends N identical concurrent requests and
// requires exactly one tuner run, with every response carrying the same
// plan bytes.
func TestSingleflightCollapse(t *testing.T) {
	br := newBlockingRun()
	s := New(Options{Workers: 2, QueueDepth: 8})
	s.run = br.run
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	type outcome struct {
		status int
		resp   api.PlanResponse
	}
	results := make([]outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postPlan(t, ts.URL, testRequest(16))
			results[i].status = resp.StatusCode
			json.Unmarshal(data, &results[i].resp)
		}(i)
	}

	<-br.started // one run began…
	select {
	case label := <-br.started:
		t.Fatalf("second tuner run started (%s); singleflight failed", label)
	case <-time.After(100 * time.Millisecond):
	}
	close(br.release)
	wg.Wait()

	want := []byte(`{"gbs":16}`)
	shared := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		if !bytes.Equal(r.resp.Plan, want) {
			t.Fatalf("request %d: plan %s, want %s", i, r.resp.Plan, want)
		}
		if r.resp.Shared {
			shared++
		}
	}
	if got := s.sm.tunerRuns.Value(); got != 1 {
		t.Fatalf("TunerRuns = %d, want 1", got)
	}
	if got := s.sm.flightsShared.Value(); got != n-1 {
		t.Fatalf("FlightsShared = %d, want %d", got, n-1)
	}
	if shared != n-1 {
		t.Fatalf("%d responses marked shared, want %d", shared, n-1)
	}
	if hits, misses := s.sm.cacheHits.Value(), s.sm.cacheMisses.Value(); hits != 0 || misses != int64(n) {
		t.Fatalf("cache hits/misses = %d/%d, want 0/%d", hits, misses, n)
	}

	// The flight populated the cache: a repeat is a hit with the same bytes.
	resp, data := postPlan(t, ts.URL, testRequest(16))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	var pr api.PlanResponse
	json.Unmarshal(data, &pr)
	if !pr.Cached || !bytes.Equal(pr.Plan, want) {
		t.Fatalf("repeat not served verbatim from cache: cached=%v plan=%s", pr.Cached, pr.Plan)
	}
	if got := s.sm.cacheHits.Value(); got != 1 {
		t.Fatalf("CacheHits = %d, want 1", got)
	}
}

// TestAdmissionRejection saturates a 1-worker, depth-1 server and requires
// the next distinct request to be refused with 429.
func TestAdmissionRejection(t *testing.T) {
	br := newBlockingRun()
	s := New(Options{Workers: 1, QueueDepth: 1})
	s.run = br.run
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		postPlan(t, ts.URL, testRequest(16)) // occupies the worker
	}()
	<-br.started // worker busy; queue empty

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postPlan(t, ts.URL, testRequest(32)) // fills the queue slot
	}()
	// Wait until the queued flight is actually in the channel.
	for i := 0; ; i++ {
		if len(s.jobs) == 1 {
			break
		}
		if i > 200 {
			t.Fatal("queued flight never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := postPlan(t, ts.URL, testRequest(64))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d (%s), want 429", resp.StatusCode, body)
	}
	if got := s.sm.rejected.Value(); got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}

	close(br.release)
	<-done
	wg.Wait()
}

// TestGracefulDrain verifies Drain finishes in-flight work (the waiter gets
// its plan) while refusing new requests with 503.
func TestGracefulDrain(t *testing.T) {
	br := newBlockingRun()
	s := New(Options{Workers: 1, QueueDepth: 4})
	s.run = br.run
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		resp   api.PlanResponse
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, data := postPlan(t, ts.URL, testRequest(16))
		var pr api.PlanResponse
		json.Unmarshal(data, &pr)
		inFlight <- result{resp.StatusCode, pr}
	}()
	<-br.started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining must be visible before the flight finishes: healthz flips
	// and new requests bounce.
	for i := 0; ; i++ {
		hr, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		hr.Body.Close()
		if hr.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if i > 200 {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ := postPlan(t, ts.URL, testRequest(32))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", resp.StatusCode)
	}

	close(br.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-inFlight
	if r.status != http.StatusOK || !bytes.Equal(r.resp.Plan, []byte(`{"gbs":16}`)) {
		t.Fatalf("in-flight request during drain: status %d plan %s", r.status, r.resp.Plan)
	}
}

// TestAbandonCancelsFlight verifies that when the only waiter times out,
// the flight's context is cancelled so the tuner run stops.
func TestAbandonCancelsFlight(t *testing.T) {
	br := newBlockingRun()
	s := New(Options{Workers: 1, QueueDepth: 4, DefaultTimeout: 50 * time.Millisecond})
	s.run = br.run
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postPlan(t, ts.URL, testRequest(16))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if got := s.sm.timeouts.Value(); got != 1 {
		t.Fatalf("Timeouts = %d, want 1", got)
	}
	// The run stub returns ctx.Err() once cancelled; the worker then frees
	// up, which we observe by running another flight to completion.
	close(br.release)
	resp, data := postPlan(t, ts.URL, testRequest(32))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d (%s)", resp.StatusCode, data)
	}
	// The abandoned flight must not have cached anything: retrying the
	// abandoned workload is a miss, not a hit.
	resp, data = postPlan(t, ts.URL, testRequest(16))
	var pr api.PlanResponse
	json.Unmarshal(data, &pr)
	if resp.StatusCode != http.StatusOK || pr.Cached {
		t.Fatalf("retry after abandon: status %d cached=%v (abandoned run must not populate the cache)", resp.StatusCode, pr.Cached)
	}
}

// TestStreamEndpoint checks the NDJSON contract: progress records then a
// terminal plan record.
func TestStreamEndpoint(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	s.run = func(ctx context.Context, req api.PlanRequest, wl *mario.Workload, tracer *telemetry.Tracer, progress func(api.ProgressEvent)) ([]byte, error) {
		for i := 1; i <= 3; i++ {
			progress(api.ProgressEvent{Explored: i, Best: "1F1B", BestThroughput: float64(i)})
		}
		return []byte(`{"ok":true}`), nil
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testRequest(16))
	resp, err := http.Post(ts.URL+"/v1/plan/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	last := lines[len(lines)-1]
	var term api.StreamRecord
	if err := json.Unmarshal(last, &term); err != nil {
		t.Fatalf("terminal record: %v", err)
	}
	pr, err := api.ParsePlanResponse(last)
	if err != nil {
		t.Fatalf("terminal record: %v", err)
	}
	if term.Type != "plan" || !bytes.Equal(pr.Plan, []byte(`{"ok":true}`)) {
		t.Fatalf("terminal record = %s", last)
	}
	for _, line := range lines[:len(lines)-1] {
		var rec api.StreamRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Type != "progress" {
			t.Fatalf("non-progress record before terminal: %s", line)
		}
	}
}

// TestValidationErrors exercises the 400 paths.
func TestValidationErrors(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []any{
		api.PlanRequest{}, // no model
		api.PlanRequest{Model: "NoSuchModel", Devices: 4, GlobalBatch: 16},
		api.PlanRequest{Model: "LLaMA2-3B", Devices: 0, GlobalBatch: 16}, // devices
		api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16, Scheme: "bogus"},
		api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16, Memory: "12X"},
		api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16, MicroBatches: []int{0}},
		api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16, TimeoutSec: -1},
		// A field the schema no longer has (the retired delta, prune and
		// branch-and-bound switches) is an unknown field like any other.
		json.RawMessage(`{"model":"LLaMA2-3B","devices":4,"global_batch":16,"no_delta":true}`),
		json.RawMessage(`{"model":"LLaMA2-3B","devices":4,"global_batch":16,"no_prune":true}`),
		json.RawMessage(`{"model":"LLaMA2-3B","devices":4,"global_batch":16,"no_bnb":true}`),
	}
	for i, req := range cases {
		resp, body := postPlan(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s), want 400", i, resp.StatusCode, body)
		}
	}

	// Strict covers the whole body: one value, then white space only. The
	// decoder stops where the first value ends, so a request with a second
	// object or plain garbage behind it used to be answered 200.
	s.run = stubRun("a")
	plan := `{"model":"LLaMA2-3B","devices":4,"global_batch":16}`
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/plan", plan + " \t\r\n", http.StatusOK},
		{"/v1/plan", plan + `{"no_delta":true}`, http.StatusBadRequest},
		{"/v1/plan", plan + " this is not json", http.StatusBadRequest},
		{"/v1/plan/stream", plan + `{"no_delta":true}`, http.StatusBadRequest},
		{"/v1/plan/stream", plan + " this is not json", http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("post %s: %v", tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %q: status %d (%s), want %d", tc.path, tc.body, resp.StatusCode, body, tc.want)
		}
		if tc.want == http.StatusBadRequest && !bytes.Contains(body, []byte("serve: decoding request")) {
			t.Errorf("%s %q: refused with %s, want a decoding error", tc.path, tc.body, body)
		}
	}
}

// TestTraceAndFlightRecorder covers the observability surface: ?trace=1
// embeds the run's canonical trace, cache hits carry none, /debug/flight
// dumps the recorded flight, and /metrics renders the registry (serve and
// search series together).
func TestTraceAndFlightRecorder(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	s.run = func(ctx context.Context, req api.PlanRequest, wl *mario.Workload, tracer *telemetry.Tracer, progress func(api.ProgressEvent)) ([]byte, error) {
		root := tracer.Root(telemetry.PhaseOptimize, "")
		search := root.Child(telemetry.PhaseSearch, "")
		search.End()
		root.End()
		return []byte(`{"ok":true}`), nil
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testRequest(16))
	resp, err := http.Post(ts.URL+"/v1/plan?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var pr api.PlanResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("decode: %v (%s)", err, raw)
	}
	if len(pr.Trace) == 0 {
		t.Fatal("traced request returned no trace")
	}
	var tr struct {
		Fingerprint string `json:"fingerprint"`
		Spans       []struct {
			Phase string `json:"phase"`
			Path  string `json:"path"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(pr.Trace, &tr); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if tr.Fingerprint != pr.Fingerprint {
		t.Errorf("trace fingerprint %q != response fingerprint %q", tr.Fingerprint, pr.Fingerprint)
	}
	if len(tr.Spans) != 2 || tr.Spans[0].Phase != "optimize" || tr.Spans[1].Path != "optimize/search" {
		t.Errorf("unexpected trace spans: %+v", tr.Spans)
	}

	// Cache hit: no trace even when asked (the run's trace lives in the
	// flight recorder).
	resp2, data := postPlan(t, ts.URL, testRequest(16))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	var hit api.PlanResponse
	json.Unmarshal(data, &hit)
	if !hit.Cached || len(hit.Trace) != 0 {
		t.Errorf("cache hit: cached=%v trace=%d bytes, want cached with no trace", hit.Cached, len(hit.Trace))
	}

	// The flight recorder holds the completed run with its phase summary.
	fresp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatalf("flight: %v", err)
	}
	fdump, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	for _, want := range []string{"1 recent request(s)", "outcome=completed", "optimize", pr.Fingerprint[:12]} {
		if !bytes.Contains(fdump, []byte(want)) {
			t.Errorf("/debug/flight missing %q in:\n%s", want, fdump)
		}
	}

	// /metrics renders the whole registry: serve counters, scrape-time
	// gauges and the search series registered at boot.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mdump, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"mario_serve_tuner_runs_total 1",
		"mario_serve_cache_hits_total 1",
		"mario_serve_completed_total 2",
		"mario_serve_cached_plans 1",
		"mario_serve_cache_capacity 64",
		"mario_serve_request_seconds_count 2",
		"mario_search_runs_total 0",
		`mario_search_points_total{outcome="explored"} 0`,
	} {
		if !bytes.Contains(mdump, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCachedPlanBytesGauge: the plan cache is bounded in entries, so what the
// bound amounts to in memory is reported — mario_serve_cached_plan_bytes is the
// sum of the cached bodies after inserts, a refresh and an eviction.
func TestCachedPlanBytesGauge(t *testing.T) {
	s := New(Options{CacheSize: 2})
	defer s.Close()
	scrape := func() (plans, bytes float64) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return promValue(t, rec.Body.String(), "mario_serve_cached_plans"),
			promValue(t, rec.Body.String(), "mario_serve_cached_plan_bytes")
	}
	body := func(n int) []byte { return make([]byte, n) }
	for _, step := range []struct {
		name         string
		fp           string
		data         []byte
		plans, bytes float64
	}{
		{"empty", "", nil, 0, 0},
		{"insert a", "a", body(100), 1, 100},
		{"insert b", "b", body(30), 2, 130},
		{"refresh a with a smaller body", "a", body(60), 2, 90},
		{"insert c, evicting b", "c", body(7), 2, 67},
		{"insert d, evicting a", "d", body(1000), 2, 1007},
	} {
		if step.fp != "" {
			s.cache.add(step.fp, step.data)
		}
		if plans, bytes := scrape(); plans != step.plans || bytes != step.bytes {
			t.Errorf("%s: %v plans holding %v bytes, want %v and %v", step.name, plans, bytes, step.plans, step.bytes)
		}
	}
}
