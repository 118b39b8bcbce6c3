package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mario"
	"mario/internal/serve"
	"mario/internal/serve/api"
	"mario/internal/serve/client"
	"mario/internal/serve/loadgen"
)

// drainFleet walks every member through the real shutdown path: drain the
// planning service, then stop the HTTP listener.
func drainFleet(members []*loadgen.Member, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	for _, m := range members {
		if err := m.Server.Drain(ctx); err != nil {
			return fmt.Errorf("draining %s: %w", m.URL, err)
		}
		if err := m.HTTP.Shutdown(ctx); err != nil {
			return fmt.Errorf("stopping %s: %w", m.URL, err)
		}
	}
	return nil
}

// fleetMetric extracts one series' value from a member's /metrics text.
func fleetMetric(metrics, series string) (float64, bool) {
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// runFleetSelfcheck is the -fleet-selfcheck body: boot a loopback fleet of
// three full-mesh members, prove the routed plan byte-identical to a
// single-process mario.Optimize, prove peer routing answers repeats from
// the owner's cache, push a loadgen burst through the fleet, and drain.
// Returns the process exit code.
func runFleetSelfcheck(opts serve.Options, drainTimeout time.Duration) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "mariod fleet-selfcheck: FAIL: "+format+"\n", args...)
		return 1
	}
	const members = 3 // one request entrypoint + two peers; every member owns a share of the ring

	fleet, err := loadgen.BootLoopback(members, opts)
	if err != nil {
		return fail("boot: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	clients := make([]*client.Client, members)
	urls := make([]string, members)
	for i, m := range fleet {
		clients[i] = client.New(m.URL)
		urls[i] = m.URL
		if err := clients[i].WaitReady(ctx, 10*time.Second); err != nil {
			return fail("member %d not ready: %v", i, err)
		}
	}
	fmt.Fprintf(os.Stderr, "mariod fleet-selfcheck: %d members up: %s\n", members, strings.Join(urls, " "))

	req := api.PlanRequest{
		Model:        "LLaMA2-3B",
		Devices:      4,
		GlobalBatch:  16,
		Memory:       "40G",
		MicroBatches: []int{1, 2},
	}

	// The reference: the same workload computed in-process, no fleet.
	model, err := req.Validate()
	if err != nil {
		return fail("workload: %v", err)
	}
	direct, err := mario.Optimize(req.Config(0), model)
	if err != nil {
		return fail("direct optimize: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		return fail("encoding direct plan: %v", err)
	}

	// Fresh run through member 0. Routing may forward it to the workload's
	// owner; either way the plan must reproduce the direct one byte for
	// byte.
	fresh, err := clients[0].Plan(ctx, req)
	if err != nil {
		return fail("fresh plan: %v", err)
	}
	if fresh.Cached {
		return fail("fresh request answered from cache")
	}
	if !bytes.Equal(fresh.Plan, want) {
		return fail("fleet plan differs from single-process Optimize (%d vs %d bytes)", len(fresh.Plan), len(want))
	}
	owner := fresh.Peer // "" means member 0 owned it
	if owner == "" {
		owner = fleet[0].URL
	}

	// Repeat the workload via every member: byte-identical everywhere, and
	// every non-owner answer must be a routed peer cache hit — the fleet
	// computes each plan once.
	peerHits := 0
	for i, cl := range clients {
		resp, err := cl.Plan(ctx, req)
		if err != nil {
			return fail("repeat via member %d: %v", i, err)
		}
		if !bytes.Equal(resp.Plan, want) {
			return fail("member %d served different plan bytes", i)
		}
		if !resp.Cached {
			return fail("repeat via member %d missed every cache", i)
		}
		if fleet[i].URL != owner {
			if resp.Peer != owner {
				return fail("member %d answered the owner's workload itself (peer=%q, owner=%s)", i, resp.Peer, owner)
			}
			peerHits++
		}
	}
	if peerHits != members-1 {
		return fail("peer cache hits = %d, want %d", peerHits, members-1)
	}

	// Every non-owner must have reached the owner over the routing hop, and
	// the owner's counter says so on the non-owner's own /metrics.
	for i, m := range fleet {
		if m.URL == owner {
			continue
		}
		mtx, err := clients[i].Metrics(ctx)
		if err != nil {
			return fail("member %d metrics: %v", i, err)
		}
		if v, ok := fleetMetric(mtx, `mario_serve_peer_routed_total{result="ok"}`); !ok || v == 0 {
			return fail("member %d routed nothing to the owner (%v, present=%v)", i, v, ok)
		}
	}
	fmt.Fprintf(os.Stderr, "mariod fleet-selfcheck: routed plan byte-identical, %d peer cache hits\n", peerHits)

	// Loadgen burst across all members: a mixed-fingerprint load must come
	// back clean — no errors, no pushback at this depth — and mostly cached.
	burst, err := loadgen.Run(ctx, loadgen.Options{
		Targets:     urls,
		Workloads:   loadgen.MixedWorkloads(req, 3),
		Requests:    240,
		Concurrency: 24,
	})
	if err != nil {
		return fail("loadgen: %v", err)
	}
	os.Stderr.WriteString("mariod fleet-selfcheck: burst:\n" + burst.Summary())
	if burst.Errors > 0 || burst.Rej429 > 0 || burst.Rej503 > 0 {
		return fail("burst degraded: %+v", burst)
	}
	if burst.Cached == 0 || burst.Peer == 0 {
		return fail("burst saw no cache or peer hits: %+v", burst)
	}

	if err := drainFleet(fleet, drainTimeout); err != nil {
		return fail("%v", err)
	}
	fmt.Fprintln(os.Stderr, "mariod fleet-selfcheck: OK")
	return 0
}
