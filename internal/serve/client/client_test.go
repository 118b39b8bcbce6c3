package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mario"
	"mario/internal/serve"
	"mario/internal/serve/api"
	"mario/internal/serve/client"
)

// TestEndToEndByteIdentity runs the full stack — client, HTTP, service,
// real tuner — and requires the served plan to be byte-identical to a
// direct mario.Optimize of the same workload, for the fresh run and the
// cache hit alike.
func TestEndToEndByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real tuner search")
	}
	s := serve.New(serve.Options{Workers: 2, QueueDepth: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := api.PlanRequest{
		Model:        "LLaMA2-3B",
		Devices:      4,
		GlobalBatch:  16,
		Memory:       "40G",
		MicroBatches: []int{1, 2},
	}
	direct, err := mario.Optimize(mario.Config{
		PipelineScheme:  "Auto",
		GlobalBatchSize: 16,
		NumDevices:      4,
		MemoryPerDevice: "40G",
		MicroBatchSizes: []int{1, 2},
	}, mario.Models()["LLaMA2-3B"])
	if err != nil {
		t.Fatalf("direct optimize: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatalf("marshal direct plan: %v", err)
	}

	c := client.New(ts.URL)
	ctx := context.Background()

	fresh, err := c.Plan(ctx, req)
	if err != nil {
		t.Fatalf("fresh plan: %v", err)
	}
	if fresh.Cached {
		t.Fatal("first request reported cached")
	}
	if !bytes.Equal(fresh.Plan, want) {
		t.Fatalf("fresh served plan differs from direct Optimize (%d vs %d bytes)", len(fresh.Plan), len(want))
	}

	events := 0
	hit, err := c.PlanStream(ctx, req, func(api.ProgressEvent) { events++ })
	if err != nil {
		t.Fatalf("cached plan: %v", err)
	}
	if !hit.Cached {
		t.Fatal("second request missed the cache")
	}
	if events != 0 {
		t.Fatalf("cache hit streamed %d progress events, want 0", events)
	}
	if !bytes.Equal(hit.Plan, want) {
		t.Fatal("cache hit not byte-identical to direct Optimize")
	}
	if hit.Fingerprint != fresh.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", fresh.Fingerprint, hit.Fingerprint)
	}

	plan, err := client.Decode(hit)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if plan.Best.Label() != direct.Best.Label() || plan.Best.Throughput != direct.Best.Throughput {
		t.Fatalf("decoded best %s/%.4f, direct %s/%.4f",
			plan.Best.Label(), plan.Best.Throughput, direct.Best.Label(), direct.Best.Throughput)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	var h api.Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || !h.OK || h.CachedPlans != 1 {
		t.Fatalf("health = %+v, %v", h, err)
	}
	// A handler observes its latency after it has written the answer, so the
	// second observation may still be on its way when the client has the body
	// (4 of 40 runs on a busy two-core host): wait for it.
	var metrics string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if metrics, err = c.Metrics(ctx); err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if strings.Contains(metrics, "mario_serve_request_seconds_count 2") || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{
		"mario_serve_tuner_runs_total 1",
		"mario_serve_cache_hits_total 1",
		"mario_serve_cache_misses_total 1",
		"mario_serve_request_seconds_count 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestStreamProgressOnFreshRun requires a fresh streamed run to surface
// tuner progress before the terminal plan.
func TestStreamProgressOnFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real tuner search")
	}
	s := serve.New(serve.Options{Workers: 1, QueueDepth: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL)
	events := 0
	resp, err := c.PlanStream(context.Background(), api.PlanRequest{
		Model:        "LLaMA2-3B",
		Devices:      4,
		GlobalBatch:  16,
		Memory:       "40G",
		MicroBatches: []int{1, 2},
	}, func(api.ProgressEvent) { events++ })
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if resp.Cached || resp.Shared {
		t.Fatalf("fresh run reported cached=%v shared=%v", resp.Cached, resp.Shared)
	}
	if events == 0 {
		t.Fatal("fresh streamed run produced no progress events")
	}
	if _, err := client.Decode(resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestPlanReadTrustsBytesNotContentLength: the client sizes its read from the
// Content-Length, which is the sender's claim. A peer or proxy that declares a
// terabyte and sends twenty bytes costs twenty bytes; a body shorter than
// declared is an error wrapping io.ErrUnexpectedEOF, never a parse of the
// prefix; and an answer without the header — chunked, what a member from
// before the header sends — reads to the same PlanResponse as a sized one.
func TestPlanReadTrustsBytesNotContentLength(t *testing.T) {
	const envelope = `{"fingerprint":"f00d","cached":true,"peer":"http://10.0.0.2:8437","plan":{"version":3},"trace":{"spans":[]}}` + "\n"
	// raw answers with exactly these bytes and closes the connection.
	raw := func(response string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			defer conn.Close()
			io.WriteString(conn, response)
		}
	}
	header := func(length int) string {
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", length)
	}
	plan := func(t *testing.T, h http.HandlerFunc) (*api.PlanResponse, error) {
		t.Helper()
		ts := httptest.NewServer(h)
		defer ts.Close()
		return client.New(ts.URL).Plan(context.Background(), api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16})
	}

	sized, err := plan(t, raw(header(len(envelope))+envelope))
	if err != nil {
		t.Fatalf("sized answer: %v", err)
	}
	if sized.Fingerprint != "f00d" || !sized.Cached || sized.Peer != "http://10.0.0.2:8437" ||
		string(sized.Plan) != `{"version":3}` || string(sized.Trace) != `{"spans":[]}` {
		t.Fatalf("sized answer read as %+v", sized)
	}

	t.Run("declares 1 TiB, sends 20 bytes", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pr, err := plan(t, raw(header(1<<40)+envelope[:20]))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("read %+v from a truncated body", pr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("the request allocated %d bytes on the word of a Content-Length", grew)
		}
	})
	t.Run("declares 100, sends 50", func(t *testing.T) {
		pr, err := plan(t, raw(header(100)+envelope[:50]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("response %+v, error %v, want io.ErrUnexpectedEOF", pr, err)
		}
	})
	t.Run("no Content-Length", func(t *testing.T) {
		chunked, err := plan(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.(http.Flusher).Flush() // headers leave before the length is known
			io.WriteString(w, envelope)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(chunked, sized) {
			t.Errorf("chunked answer read as %+v, sized as %+v", chunked, sized)
		}
	})
}
