// Package loadgen drives synthetic request load against a mariod planning
// fleet and reports latency quantiles and outcome rates. It is the engine
// behind cmd/loadgen and the fleet selfcheck's burst phase, and boots the
// loopback fleet both of them run against (BootLoopback).
//
// The generator speaks raw HTTP rather than the service client so that
// admission pushback (429 from a full queue, 503 from a draining member)
// is observable as a counted outcome instead of a retried-away error: the
// point of a load test is to see the server push back.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mario/internal/serve"
	"mario/internal/serve/api"
)

// Options configures one load run.
type Options struct {
	// Targets are the fleet members' base URLs; requests round-robin over
	// them, so with routing enabled the fleet's peer-forwarding shows up in
	// the Peer count.
	Targets []string
	// Workloads are the plan requests to mix; request i sends workload
	// i mod len(Workloads). Repeats of one workload exercise the cache.
	Workloads []api.PlanRequest
	// Requests is the total number of requests to send.
	Requests int
	// Concurrency is how many requests are kept in flight; 0 means 32.
	Concurrency int
	// HTTPClient overrides the transport; nil uses http.DefaultClient.
	HTTPClient *http.Client
}

// Result is the aggregate outcome of one load run.
type Result struct {
	Total   int           `json:"total"`
	OK      int           `json:"ok"`      // 200 responses
	Cached  int           `json:"cached"`  // OK answered from a plan cache
	Shared  int           `json:"shared"`  // OK answered by singleflight sharing
	Peer    int           `json:"peer"`    // OK answered by a routed peer
	Rej429  int           `json:"rej_429"` // admission pushback: queue full
	Rej503  int           `json:"rej_503"` // admission pushback: draining
	Errors  int           `json:"errors"`  // transport failures and other statuses
	P50     time.Duration `json:"p50_ns"`
	P90     time.Duration `json:"p90_ns"`
	P99     time.Duration `json:"p99_ns"`
	Max     time.Duration `json:"max_ns"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// ReqPerSec is Total divided by the wall-clock of the whole run.
	ReqPerSec float64 `json:"req_per_sec"`
}

// Summary renders the result as a compact human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests  %d in %v (%.0f req/s)\n", r.Total, r.Elapsed.Round(time.Millisecond), r.ReqPerSec)
	fmt.Fprintf(&b, "outcomes  ok=%d cached=%d shared=%d peer=%d 429=%d 503=%d err=%d\n",
		r.OK, r.Cached, r.Shared, r.Peer, r.Rej429, r.Rej503, r.Errors)
	fmt.Fprintf(&b, "latency   p50=%v p90=%v p99=%v max=%v\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	return b.String()
}

type sample struct {
	latency time.Duration
	status  int
	cached  bool
	shared  bool
	peer    bool
	err     bool
}

// Run executes the load described by opts and aggregates the outcomes.
// It returns an error only for unusable options or a cancelled context;
// individual request failures are counted, not fatal.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if len(opts.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	if len(opts.Workloads) == 0 {
		return nil, fmt.Errorf("loadgen: no workloads")
	}
	if opts.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: Requests must be positive")
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 32
	}
	if conc > opts.Requests {
		conc = opts.Requests
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	bodies := make([][]byte, len(opts.Workloads))
	for i, w := range opts.Workloads {
		b, err := json.Marshal(w)
		if err != nil {
			return nil, fmt.Errorf("loadgen: encoding workload %d: %w", i, err)
		}
		bodies[i] = b
	}

	samples := make([]sample, opts.Requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Requests || ctx.Err() != nil {
					return
				}
				samples[i] = fire(ctx, hc,
					opts.Targets[i%len(opts.Targets)],
					bodies[i%len(bodies)])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return aggregate(samples, time.Since(start)), nil
}

// fire sends one plan request and classifies the outcome.
func fire(ctx context.Context, hc *http.Client, target string, body []byte) sample {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		return sample{err: true}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return sample{latency: time.Since(t0), err: true}
	}
	defer resp.Body.Close()
	s := sample{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		if pr, err := api.ReadPlanResponse(resp); err == nil {
			s.cached, s.shared, s.peer = pr.Cached, pr.Shared, pr.Peer != ""
		}
	}
	io.Copy(io.Discard, resp.Body)
	s.latency = time.Since(t0)
	return s
}

func aggregate(samples []sample, elapsed time.Duration) *Result {
	r := &Result{Total: len(samples), Elapsed: elapsed}
	if elapsed > 0 {
		r.ReqPerSec = float64(len(samples)) / elapsed.Seconds()
	}
	lat := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		lat = append(lat, s.latency)
		switch {
		case s.err:
			r.Errors++
		case s.status == http.StatusOK:
			r.OK++
			if s.cached {
				r.Cached++
			}
			if s.shared {
				r.Shared++
			}
			if s.peer {
				r.Peer++
			}
		case s.status == http.StatusTooManyRequests:
			r.Rej429++
		case s.status == http.StatusServiceUnavailable:
			r.Rej503++
		default:
			r.Errors++
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.P50 = quantile(lat, 0.50)
	r.P90 = quantile(lat, 0.90)
	r.P99 = quantile(lat, 0.99)
	r.Max = lat[len(lat)-1]
	return r
}

// quantile returns the nearest-rank q-quantile of sorted latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// MixedWorkloads builds n plan-request variants of base, stepping the
// global batch size so each variant has a distinct fingerprint. With a
// request count well above n, the run is a cache-hit-dominated mix — the
// steady state a planning fleet actually serves.
func MixedWorkloads(base api.PlanRequest, n int) []api.PlanRequest {
	if n <= 1 {
		return []api.PlanRequest{base}
	}
	ws := make([]api.PlanRequest, n)
	for i := range ws {
		w := base
		w.GlobalBatch = base.GlobalBatch * (i + 1)
		ws[i] = w
	}
	return ws
}

// Member is one member of a loopback fleet BootLoopback started: a full
// server (plan cache, tuner workers and owner router) behind its own HTTP
// listener.
type Member struct {
	URL    string
	Server *serve.Server
	HTTP   *http.Server
}

// BootLoopback starts n full-mesh fleet members on ephemeral loopback ports:
// each gets base with its own URL as Self and the others as Fleet, so
// consistent-hash routing to each workload's owner is live between all of
// them.
// Stopping them is the caller's: Server.Drain or Close, and HTTP.Shutdown.
func BootLoopback(n int, base serve.Options) ([]*Member, error) {
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range listeners[:i] {
				open.Close()
			}
			return nil, err
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	members := make([]*Member, n)
	for i, l := range listeners {
		opts := base
		opts.Self = urls[i]
		opts.Fleet = nil
		for j, u := range urls {
			if j != i {
				opts.Fleet = append(opts.Fleet, u)
			}
		}
		s := serve.New(opts)
		m := &Member{URL: urls[i], Server: s, HTTP: &http.Server{Handler: s.Handler()}}
		go m.HTTP.Serve(l) // returns when the caller shuts m.HTTP down
		members[i] = m
	}
	return members, nil
}
