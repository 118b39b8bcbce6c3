package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mario"
	"mario/internal/serve/api"
	"mario/internal/telemetry"
)

// encoded is what the /v1/plan endpoint wrote before writePlanResponse
// existed, and what every client was built against.
func encoded(t *testing.T, resp api.PlanResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatalf("encoding %+v: %v", resp, err)
	}
	return buf.Bytes()
}

// envelopeShape is one shape of /v1/plan answer.
type envelopeShape struct {
	name string
	resp api.PlanResponse
}

// envelopeShapes are the answers the service writes, and one it never should
// (strings full of what JSON escapes), for the tests that pin the writer to
// the encoder and the reader to the writer.
func envelopeShapes(t *testing.T) []envelopeShape {
	t.Helper()
	// Plan and trace bytes are encoding/json output, as in production: the
	// encoder would rewrite anything else (a raw '<', a space).
	plan, err := json.Marshal(map[string]any{"version": 3, "note": "a < b & c", "best": map[string]any{"scheme": "V"}})
	if err != nil {
		t.Fatal(err)
	}
	trace := json.RawMessage(`{"fingerprint":"f00d","spans":[]}`)
	return []envelopeShape{
		{"fresh", api.PlanResponse{Fingerprint: "f00d", Plan: plan}},
		{"cached", api.PlanResponse{Fingerprint: "f00d", Cached: true, Plan: plan}},
		{"shared", api.PlanResponse{Fingerprint: "f00d", Shared: true, Plan: plan}},
		{"fresh traced", api.PlanResponse{Fingerprint: "f00d", Plan: plan, Trace: trace}},
		{"shared traced", api.PlanResponse{Fingerprint: "f00d", Shared: true, Plan: plan, Trace: trace}},
		{"peer hit", api.PlanResponse{Fingerprint: "f00d", Cached: true, Peer: "http://10.0.0.2:8437", Plan: plan}},
		{"peer fresh traced", api.PlanResponse{Fingerprint: "f00d", Peer: "http://10.0.0.2:8437", Plan: plan, Trace: trace}},
		{"nil plan", api.PlanResponse{Fingerprint: "f00d"}},
		{"nil plan traced", api.PlanResponse{Fingerprint: "f00d", Trace: trace}},
		{"strings the encoder escapes", api.PlanResponse{
			Fingerprint: "</script>&\u2028\u2029\x00\b\f\n\r\t\x7f\\",
			Cached:      true,
			Peer:        "http://h/?a=<&>\" \xff\xc0end",
			Plan:        plan,
		}},
	}
}

// TestWritePlanResponseMatchesEncoder pins the writer to the encoder it
// replaced: for every shape of answer the body is the bytes
// json.NewEncoder(w).Encode(resp) writes, and the declared length is the
// body's.
func TestWritePlanResponseMatchesEncoder(t *testing.T) {
	for _, tc := range envelopeShapes(t) {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writePlanResponse(rec, tc.resp, false)
			want := encoded(t, tc.resp)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("writer and encoder disagree:\n got %s\nwant %s", got, want)
			}
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
				t.Errorf("Content-Length %q for a %d-byte body", got, len(want))
			}
			if got := rec.Header().Get("Content-Type"); got != "application/json" {
				t.Errorf("Content-Type %q", got)
			}
		})
	}
}

// TestReadPlanResponseRoundTrip pins the reader to the writer: what
// writePlanResponse wrote, api.ParsePlanResponse reads back field for field (a
// plan the writer did not have comes back as the null it wrote, and a byte
// that is not UTF-8 as the U+FFFD the encoder made of it), with Plan and Trace
// inside the buffer that was read — no copy — and no spare capacity reaching
// into the bytes behind them.
func TestReadPlanResponseRoundTrip(t *testing.T) {
	for _, tc := range envelopeShapes(t) {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writePlanResponse(rec, tc.resp, false)
			body := rec.Body.Bytes()
			pr, err := api.ParsePlanResponse(body)
			if err != nil {
				t.Fatalf("reading %s: %v", body, err)
			}
			want := tc.resp
			want.Peer = string([]rune(want.Peer)) // each byte that is not UTF-8 is one U+FFFD
			if want.Plan == nil {
				want.Plan = json.RawMessage("null")
			}
			if !reflect.DeepEqual(*pr, want) {
				t.Fatalf("read back %+v, wrote %+v", *pr, want)
			}
			for _, raw := range []json.RawMessage{pr.Plan, pr.Trace} {
				if raw == nil {
					continue
				}
				if &raw[0] != &body[bytes.Index(body, raw)] {
					t.Errorf("%s was copied out of the body", raw)
				}
				if cap(raw) != len(raw) {
					t.Errorf("%d bytes of capacity behind the %d of %s", cap(raw)-len(raw), len(raw), raw)
				}
			}
		})
	}
}

// TestPlanReadCostIndependentOfPlanSize: reading an answer allocates the
// PlanResponse and its short strings — nothing per plan byte, whatever the
// plan weighs.
func TestPlanReadCostIndependentOfPlanSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	reads := func(size int) float64 {
		rec := httptest.NewRecorder()
		writePlanResponse(rec, api.PlanResponse{
			Fingerprint: strings.Repeat("f00d", 16), Cached: true, Peer: "http://10.0.0.2:8437",
			Plan: []byte(`{"pad":"` + strings.Repeat("x", size) + `"}`),
		}, false)
		body := rec.Body.Bytes()
		return testing.AllocsPerRun(100, func() {
			if _, err := api.ParsePlanResponse(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := reads(1 << 10)
	for _, size := range []int{35 << 10, 1 << 20} {
		if allocs := reads(size); allocs != small {
			t.Errorf("reading a %d-byte plan allocates %v times, a 1 KB plan %v times", size, allocs, small)
		}
	}
	if small > 4 {
		t.Errorf("a read allocates %v times, want the response and its two strings", small)
	}
}

// TestPlanAnswersMatchEncoderEndToEnd captures every kind of /v1/plan answer
// over HTTP from servers running the real optimize, and requires each body to
// be what the encoder writes for the response it decodes to. The unit table
// above feeds the writer hand-made plan bytes; this pins the assumption it
// rests on — json.Marshal(plan) and the marshalled trace pass through the
// encoder's compaction unchanged.
func TestPlanAnswersMatchEncoderEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real tuner searches over loopback HTTP")
	}
	post := func(url string, req api.PlanRequest) []byte {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post %s: %v", url, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("post %s: status %d, read error %v: %s", url, resp.StatusCode, err, raw)
		}
		if resp.ContentLength != int64(len(raw)) {
			t.Errorf("post %s: Content-Length %d for a %d-byte body", url, resp.ContentLength, len(raw))
		}
		return raw
	}
	// check decodes one captured body, requires it to be the kind of answer the
	// case is about, and compares it with the encoder's bytes.
	check := func(name string, raw []byte, cached, shared bool, peer string, traced bool) {
		t.Helper()
		var pr api.PlanResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pr.Cached != cached || pr.Shared != shared || pr.Peer != peer || (len(pr.Trace) > 0) != traced || len(pr.Plan) < 1000 {
			t.Fatalf("%s: cached=%v shared=%v peer=%q trace=%d bytes plan=%d bytes — not the answer this case is about",
				name, pr.Cached, pr.Shared, pr.Peer, len(pr.Trace), len(pr.Plan))
		}
		if want := encoded(t, pr); !bytes.Equal(raw, want) {
			t.Errorf("%s: body differs from the encoder's (%d vs %d bytes)", name, len(raw), len(want))
		}
	}

	aURL, bURL, _, _, cleanup := fleetPair(t)
	defer cleanup()
	reqs, _ := workloadsOwnedBy(t, newHashRing([]string{aURL, bURL}), bURL, 2)
	check("fresh traced", post(bURL+"/v1/plan?trace=1", reqs[0]), false, false, "", true)
	check("hit", post(bURL+"/v1/plan", reqs[0]), true, false, "", false)
	check("peer-forwarded hit", post(aURL+"/v1/plan", reqs[0]), true, false, bURL, false)
	check("peer-forwarded fresh traced", post(aURL+"/v1/plan?trace=1", reqs[1]), false, false, bURL, true)

	// A shared flight: hold the real run until a second identical request has
	// joined it.
	s := New(Options{})
	defer s.Close()
	run, gate := s.run, make(chan struct{})
	s.run = func(ctx context.Context, req api.PlanRequest, wl *mario.Workload, tracer *telemetry.Tracer, progress func(api.ProgressEvent)) ([]byte, error) {
		<-gate
		return run(ctx, req, wl, tracer, progress)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bodies := make(chan []byte, 2)
	for i := 0; i < 2; i++ {
		go func() { bodies <- post(ts.URL+"/v1/plan", testRequest(16)) }()
	}
	for deadline := time.Now().Add(10 * time.Second); s.sm.flightsShared.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the flight")
		}
	}
	close(gate)
	first, second := <-bodies, <-bodies
	if bytes.Contains(first, []byte(`"shared":true`)) {
		first, second = second, first
	}
	check("fresh", first, false, false, "", false)
	check("shared", second, false, true, "", false)
}

// TestStreamTerminalIsPlanAnswer: the stream's terminal line is the /v1/plan
// answer for the same fingerprint with "type":"plan" in front of its members,
// for a fresh request with ?trace=1 and for a cache hit. Each endpoint is
// served by a server of its own, so both compute the first answer with the
// real optimize.
func TestStreamTerminalIsPlanAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real tuner searches over loopback HTTP")
	}
	body, err := json.Marshal(testRequest(16))
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post %s: %v", url, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("post %s: status %d, read error %v: %s", url, resp.StatusCode, err, raw)
		}
		return raw
	}
	var urls [2]string
	for i := range urls {
		s := New(Options{})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}
	for _, tc := range []struct {
		name, query    string
		cached, traced bool
	}{
		{"fresh traced", "?trace=1", false, true},
		{"hit", "", true, false},
	} {
		answer := post(urls[0] + "/v1/plan" + tc.query)
		pr, err := api.ParsePlanResponse(answer)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pr.Cached != tc.cached || (len(pr.Trace) > 0) != tc.traced {
			t.Fatalf("%s: cached=%v trace=%d bytes — not the answer this case is about", tc.name, pr.Cached, len(pr.Trace))
		}
		stream := post(urls[1] + "/v1/plan/stream" + tc.query)
		term := stream[bytes.LastIndexByte(stream[:len(stream)-1], '\n')+1:]
		if want := append([]byte(`{"type":"plan",`), answer[1:]...); !bytes.Equal(term, want) {
			t.Errorf("%s: terminal line differs from the /v1/plan answer\nstream: %.200s\nwant:   %.200s", tc.name, term, want)
		}
	}
}

// discard is a ResponseWriter that keeps nothing, so a measurement over it
// counts the handler's allocations and not a recorder's growing buffer.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(p []byte) (int, error) { return len(p), nil }
func (d discard) WriteHeader(int)             {}

// rewindBody is a request body that can be read again, so one request serves
// every measured run.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// planHitCost is what one warm /v1/plan request costs the handler when the
// cached plan is size bytes: its allocation count, and the fastest of the
// measured runs (the one the machine disturbed least).
func planHitCost(t *testing.T, size int) (allocs float64, fastest time.Duration) {
	t.Helper()
	plan := []byte(`{"pad":"` + strings.Repeat("x", size-len(`{"pad":""}`)) + `"}`)
	s := New(Options{})
	defer s.Close()
	s.run = func(context.Context, api.PlanRequest, *mario.Workload, *telemetry.Tracer, func(api.ProgressEvent)) ([]byte, error) {
		return plan, nil
	}
	h := s.Handler()
	reqBody, _ := json.Marshal(testRequest(16))
	body := rewindBody{bytes.NewReader(reqBody)}
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", body)
	w := discard{http.Header{}}
	h.ServeHTTP(w, r) // the miss that fills the cache
	fastest = time.Hour
	allocs = testing.AllocsPerRun(200, func() {
		body.Seek(0, io.SeekStart)
		start := time.Now()
		h.ServeHTTP(w, r)
		if d := time.Since(start); d < fastest {
			fastest = d
		}
	})
	if hits := s.sm.cacheHits.Value(); hits < 200 {
		t.Fatalf("%d cache hits: the measured requests were not hits", hits)
	}
	return allocs, fastest
}

// TestPlanHitCostIndependentOfPlanSize: a cache hit costs the same whatever
// the plan weighs, because the handler never walks the stored bytes. The
// encoder path it replaced pooled its buffer, so its allocation count did not
// grow with the plan either — this harness counts 20 per hit on the parent
// commit (72c00d0), the ceiling here — but its time did: there a hit on 1 MB
// takes 5.7 ms and a hit on 1 KB 10 µs.
func TestPlanHitCostIndependentOfPlanSize(t *testing.T) {
	const parentAllocs = 20
	small, smallTime := planHitCost(t, 1<<10)
	for _, size := range []int{35 << 10, 1 << 20} {
		allocs, fastest := planHitCost(t, size)
		if allocs != small && !raceEnabled {
			t.Errorf("a hit on a %d-byte plan allocates %v times, on a 1 KB plan %v times", size, allocs, small)
		}
		if fastest > 10*smallTime {
			t.Errorf("a hit on a %d-byte plan takes %v, on a 1 KB plan %v", size, fastest, smallTime)
		}
	}
	if small > parentAllocs && !raceEnabled {
		t.Errorf("a hit allocates %v times, above the encoder path's %d", small, parentAllocs)
	}
}
