package loadgen_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mario/internal/serve"
	"mario/internal/serve/api"
	"mario/internal/serve/client"
	"mario/internal/serve/loadgen"
)

// TestRunClassifiesOutcomes drives the generator against a scripted server
// and checks every outcome bucket: fresh 200s, cached 200s, peer-routed
// 200s, 429 and 503 pushback, and hard failures.
func TestRunClassifiesOutcomes(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 6 {
		case 1:
			json.NewEncoder(w).Encode(api.PlanResponse{Plan: json.RawMessage(`{}`)})
		case 2:
			json.NewEncoder(w).Encode(api.PlanResponse{Cached: true, Plan: json.RawMessage(`{}`)})
		case 3:
			json.NewEncoder(w).Encode(api.PlanResponse{Cached: true, Peer: "http://other", Plan: json.RawMessage(`{}`)})
		case 4:
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
		case 5:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining"}`)
		case 0:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer ts.Close()

	const total = 60 // 10 full cycles of the 6-outcome script
	res, err := loadgen.Run(context.Background(), loadgen.Options{
		Targets:     []string{ts.URL},
		Workloads:   []api.PlanRequest{{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16}},
		Requests:    total,
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != total {
		t.Fatalf("total = %d, want %d", res.Total, total)
	}
	want := map[string]int{"ok": 30, "cached": 20, "peer": 10, "429": 10, "503": 10, "err": 10}
	got := map[string]int{"ok": res.OK, "cached": res.Cached, "peer": res.Peer,
		"429": res.Rej429, "503": res.Rej503, "err": res.Errors}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %d, want %d (full: %+v)", k, got[k], w, res)
		}
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.Max < res.P99 {
		t.Errorf("quantiles not ordered: p50=%v p99=%v max=%v", res.P50, res.P99, res.Max)
	}
	if res.ReqPerSec <= 0 {
		t.Error("zero throughput")
	}
}

func TestRunOptionValidation(t *testing.T) {
	ctx := context.Background()
	w := []api.PlanRequest{{Model: "LLaMA2-3B"}}
	if _, err := loadgen.Run(ctx, loadgen.Options{Workloads: w, Requests: 1}); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := loadgen.Run(ctx, loadgen.Options{Targets: []string{"http://x"}, Requests: 1}); err == nil {
		t.Error("no workloads accepted")
	}
	if _, err := loadgen.Run(ctx, loadgen.Options{Targets: []string{"http://x"}, Workloads: w}); err == nil {
		t.Error("zero requests accepted")
	}
}

// TestMixedWorkloads pins that every variant gets a distinct fingerprint —
// otherwise the "mix" silently collapses to one cache entry.
func TestMixedWorkloads(t *testing.T) {
	base := api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16, MicroBatches: []int{1, 2}}
	ws := loadgen.MixedWorkloads(base, 4)
	if len(ws) != 4 {
		t.Fatalf("got %d workloads", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		model, err := w.Validate()
		if err != nil {
			t.Fatalf("variant gbs=%d invalid: %v", w.GlobalBatch, err)
		}
		fp := w.Fingerprint(model)
		if seen[fp] {
			t.Fatalf("duplicate fingerprint for gbs=%d", w.GlobalBatch)
		}
		seen[fp] = true
	}
}

// TestLoopbackFleetBurst pushes a mixed-fingerprint burst through a
// three-member loopback fleet of real servers: 240 requests over three
// workloads at concurrency 24 come back with no error and no 429 or 503,
// answered from caches and over the peer hop. Before the burst the base
// workload is planned through every member: every repeat is a byte-identical
// cache hit, and each member that does not own it has routed it to its owner
// and counts that on its own /metrics. The burst's targets start at such a
// member, which sends it every request of the base workload. make race also
// runs it under the race detector.
func TestLoopbackFleetBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real tuner searches over loopback HTTP")
	}
	const members = 3
	fleet, err := loadgen.BootLoopback(members, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	drained := false
	defer func() {
		if !drained {
			for _, m := range fleet {
				m.HTTP.Close()
				m.Server.Close()
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	req := api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16, Memory: "40G", MicroBatches: []int{1, 2}}
	var first *api.PlanResponse
	owner := ""
	var nonOwners []int
	for i, m := range fleet {
		resp, err := client.New(m.URL).Plan(ctx, req)
		if err != nil {
			t.Fatalf("plan via member %d: %v", i, err)
		}
		if i == 0 {
			first, owner = resp, cmp.Or(resp.Peer, m.URL)
		} else if !resp.Cached || !bytes.Equal(resp.Plan, first.Plan) {
			t.Fatalf("member %d: cached=%v, want a cache hit byte-identical to the first answer", i, resp.Cached)
		}
		if m.URL != owner {
			if resp.Peer != owner {
				t.Fatalf("member %d answered the base workload with peer %q, want its owner %s", i, resp.Peer, owner)
			}
			nonOwners = append(nonOwners, i)
		}
	}
	if len(nonOwners) != members-1 {
		t.Fatalf("%d members routed the base workload, want %d", len(nonOwners), members-1)
	}
	for _, i := range nonOwners {
		metrics, err := client.New(fleet[i].URL).Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v := promValue(metrics, `mario_serve_peer_routed_total{result="ok"}`); v <= 0 {
			t.Errorf("member %d routed nothing to the owner: %v", i, v)
		}
	}

	// Request i goes to target i mod 3 with workload i mod 3, so the base
	// workload always goes to the first target.
	var targets []string
	for k := range fleet {
		targets = append(targets, fleet[(nonOwners[0]+k)%members].URL)
	}
	burst, err := loadgen.Run(ctx, loadgen.Options{
		Targets:     targets,
		Workloads:   loadgen.MixedWorkloads(req, 3),
		Requests:    240,
		Concurrency: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if burst.Errors > 0 || burst.Rej429 > 0 || burst.Rej503 > 0 {
		t.Errorf("burst degraded:\n%s", burst.Summary())
	}
	if burst.Cached == 0 || burst.Peer == 0 {
		t.Errorf("burst saw no cache or no peer hits:\n%s", burst.Summary())
	}

	dctx, dcancel := context.WithTimeout(ctx, 30*time.Second)
	defer dcancel()
	for i, m := range fleet {
		if err := m.Server.Drain(dctx); err != nil {
			t.Fatalf("draining member %d: %v", i, err)
		}
		if err := m.HTTP.Shutdown(dctx); err != nil {
			t.Fatalf("stopping member %d: %v", i, err)
		}
	}
	drained = true
}

// TestSilentConnectionDoesNotStallDrain: a connection that a member accepted
// but that never sent a request does not hold up the member's drain.
// net/http's Shutdown counts such a connection as active for its first 5 s;
// the member's header timeout closes it well before that.
func TestSilentConnectionDoesNotStallDrain(t *testing.T) {
	fleet, err := loadgen.BootLoopback(1, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := fleet[0]
	defer m.HTTP.Close()
	defer m.Server.Close()
	silent, err := net.Dial("tcp", strings.TrimPrefix(m.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The member accepts in order: once a later connection is answered, the
	// silent one is accepted and tracked.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.New(m.URL).Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Server.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := m.HTTP.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Shutdown took %v with a silent connection open, want under 2 s", d)
	}
}

// promValue is the value of one series in a Prometheus text exposition, or
// −1 when the series is missing or unparseable.
func promValue(metrics, series string) float64 {
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			if v, err := strconv.ParseFloat(rest, 64); err == nil {
				return v
			}
		}
	}
	return -1
}
