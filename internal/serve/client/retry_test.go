package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mario/internal/serve/api"
	"mario/internal/serve/client"
)

// flakyServer fails the first `fail` requests with the given status (0
// means slam the connection shut), then answers every request with a valid
// plan response. It counts attempts.
func flakyServer(fail int, status int) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if int(n) <= fail {
			if status == 0 {
				hj, _ := w.(http.Hijacker)
				conn, _, _ := hj.Hijack()
				conn.Close()
				return
			}
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":"flaky %d"}`, status)
			return
		}
		json.NewEncoder(w).Encode(api.PlanResponse{Fingerprint: "fp", Plan: json.RawMessage(`{"v":1}`)})
	}))
	return ts, &hits
}

// TestRetryFlakyServer is the retry satellite's table test: transient
// statuses and transport failures are retried up to Retries times with
// backoff, non-retryable statuses fail immediately, and the default
// configuration never retries at all.
func TestRetryFlakyServer(t *testing.T) {
	cases := []struct {
		name     string
		fail     int
		status   int
		retries  int
		wantOK   bool
		wantHits int64
	}{
		{name: "default no retries", fail: 1, status: http.StatusServiceUnavailable, retries: 0, wantOK: false, wantHits: 1},
		{name: "503 recovers within budget", fail: 2, status: http.StatusServiceUnavailable, retries: 3, wantOK: true, wantHits: 3},
		{name: "429 recovers within budget", fail: 1, status: http.StatusTooManyRequests, retries: 2, wantOK: true, wantHits: 2},
		{name: "transport error recovers", fail: 1, status: 0, retries: 2, wantOK: true, wantHits: 2},
		{name: "budget exhausted", fail: 5, status: http.StatusServiceUnavailable, retries: 2, wantOK: false, wantHits: 3},
		{name: "400 never retried", fail: 3, status: http.StatusBadRequest, retries: 3, wantOK: false, wantHits: 1},
	}
	req := api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, hits := flakyServer(tc.fail, tc.status)
			defer ts.Close()
			cl := client.New(ts.URL)
			cl.Retries = tc.retries
			cl.Backoff = time.Millisecond
			resp, err := cl.Plan(context.Background(), req)
			if tc.wantOK != (err == nil) {
				t.Fatalf("err = %v, wantOK = %v", err, tc.wantOK)
			}
			if tc.wantOK && string(resp.Plan) != `{"v":1}` {
				t.Errorf("plan = %s", resp.Plan)
			}
			if !tc.wantOK && tc.status == http.StatusBadRequest && !strings.Contains(err.Error(), "flaky 400") {
				t.Errorf("400 error lost the server body: %v", err)
			}
			if got := hits.Load(); got != tc.wantHits {
				t.Errorf("server saw %d attempts, want %d", got, tc.wantHits)
			}
		})
	}
}

// TestRetryHonorsContext pins that backoff sleeps abort when the caller's
// context is cancelled rather than running out the retry budget.
func TestRetryHonorsContext(t *testing.T) {
	ts, hits := flakyServer(1000, http.StatusServiceUnavailable)
	defer ts.Close()
	cl := client.New(ts.URL)
	cl.Retries = 1000
	cl.Backoff = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Plan(ctx, api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16})
	if err == nil {
		t.Fatal("expected error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ignored context for %v", elapsed)
	}
	if hits.Load() != 1 {
		t.Errorf("server saw %d attempts, want 1 before the cancelled backoff", hits.Load())
	}
}
