package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mario/internal/serve/api"
	"mario/internal/telemetry"
)

// tracedOps is how many ops the traced pass runs with the program's tracing
// on.
const tracedOps = 5

// sameInputStride is a multiple of searchInstances and of serve-hot's cycle
// of 12 requests: op i+sameInputStride plans the instance, or asks the member
// for the fingerprint, that op i did — and on serve-cold it is, like every
// op, a new fingerprint.
const sameInputStride = 48_000

// Fresh fingerprints for the traced pass are instances far beyond the ones a
// window reaches, so no request is ever answered by an earlier one.
const freshInstances = 500_000

// counters is a Prometheus text exposition parsed into series → value; a
// fleet's members are summed.
type counters map[string]float64

func parseProm(text string, into counters) error {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return fmt.Errorf("metrics line %q has no value", line)
		}
		x, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics line %q: %w", line, err)
		}
		into[line[:cut]] += x
	}
	return sc.Err()
}

// scrape reads /metrics of every member over HTTP and returns the summed
// series and the median time of one read.
func scrape(ms []*member) (counters, float64, error) {
	sum := counters{}
	var times []float64
	for _, m := range ms {
		t0 := time.Now()
		text, err := m.cl.Metrics(context.Background())
		times = append(times, millis(time.Since(t0)))
		if err != nil {
			return nil, 0, fmt.Errorf("scraping %s: %w", m.url, err)
		}
		if err := parseProm(text, sum); err != nil {
			return nil, 0, err
		}
	}
	return sum, median(times), nil
}

// registryCounters renders a registry the way /metrics does and parses it,
// so search workloads read their counters through the same names.
func registryCounters(reg *telemetry.Registry) (counters, error) {
	var b bytes.Buffer
	reg.WriteProm(&b)
	c := counters{}
	return c, parseProm(b.String(), c)
}

// minus returns the growth of every series of c since base.
func (c counters) minus(base counters) counters {
	out := counters{}
	for k, x := range c {
		out[k] = x - base[k]
	}
	return out
}

// searchCounters turns the mario_search_* series of n searches' worth of ops
// into the tuner/graph/sim counter metrics, per op.
func searchCounters(c counters, ops float64, v values) {
	point := func(outcome string) float64 {
		return c[`mario_search_points_total{outcome="`+outcome+`"}`] / ops
	}
	explored, infeasible := point("explored"), point("infeasible")
	bound, mem := point("bound_pruned"), point("memory_pruned")
	grid := explored + infeasible + bound + mem
	v["tuner.grid_points"] = grid
	v["tuner.points_explored"] = explored
	v["tuner.points_oom"] = point("oom")
	v["tuner.points_infeasible"] = infeasible
	v["tuner.points_bound_pruned"] = bound
	v["tuner.points_mem_pruned"] = mem
	v["tuner.points_improved"] = c["mario_search_improved_total"] / ops
	v["tuner.explored_ratio"] = ratio(explored, grid)
	memo := func(name string) float64 {
		hit, miss := c[name+`{result="hit"}`], c[name+`{result="miss"}`]
		return ratio(hit, hit+miss)
	}
	v["tuner.build_memo_hit_ratio"] = memo("mario_search_build_memo_total")
	v["tuner.graph_memo_hit_ratio"] = memo("mario_search_graph_memo_total")
	v["graph.rounds"] = c["mario_search_graph_rounds_total"] / ops
	v["sim.sims"] = c["mario_search_sims_total"] / ops
}

// phaseMetrics turns per-op phase self times (the program's own spans) into
// the phase metrics: the median over the traced ops of each phase's self
// time. It reports as a problem any op whose self times do not sum to its
// root spans within 1 %.
func phaseMetrics(perOp [][]*telemetry.Trace, v values) (problems []error) {
	self := map[telemetry.Phase][]float64{}
	var spans []float64
	for i, traces := range perOp {
		sum := map[telemetry.Phase]time.Duration{}
		var root, total time.Duration
		n := 0
		for _, tr := range traces {
			for _, r := range tr.Roots {
				root += r.Dur()
			}
			for _, row := range tr.PhaseSummary() {
				sum[row.Phase] += row.Self
				total += row.Self
				n += row.Count
			}
		}
		if root <= 0 || math.Abs(float64(total-root)) > 0.01*float64(root) {
			problems = append(problems, fmt.Errorf("traced op %d: phase self times sum to %v, root spans to %v", i, total, root))
		}
		for _, p := range []telemetry.Phase{telemetry.PhaseOptimize, telemetry.PhaseSearch, telemetry.PhasePoint,
			telemetry.PhaseBuild, telemetry.PhaseBound, telemetry.PhaseGraph, telemetry.PhaseRound, telemetry.PhaseSim} {
			self[p] = append(self[p], millis(sum[p]))
		}
		spans = append(spans, float64(n))
	}
	med := func(p telemetry.Phase) float64 { return median(self[p]) }
	// The root span's own time is the tuner's set-up and merge, like the
	// search span's.
	v["tuner.search_self_ms"] = med(telemetry.PhaseOptimize) + med(telemetry.PhaseSearch)
	v["tuner.point_self_ms"] = med(telemetry.PhasePoint)
	v["tuner.build_self_ms"] = med(telemetry.PhaseBuild)
	v["tuner.bound_self_ms"] = med(telemetry.PhaseBound)
	v["graph.graph_self_ms"] = med(telemetry.PhaseGraph)
	v["graph.round_self_ms"] = med(telemetry.PhaseRound)
	v["sim.sim_self_ms"] = med(telemetry.PhaseSim)
	v["telemetry.spans_per_op"] = median(spans)
	return problems
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	w    *workload
	st   *state
	seed uint64
	next atomic.Int64 // index of the next op
	rec  *recorder
	v    values
	tally
}

// runTraced is the traced run: set-up once, warm-up, a short untraced window
// for reference, then the traced pass — program phases and layer replay.
func runTraced(w *workload, seed uint64, seconds int, outDir string) (*result, error) {
	h := newHeader(w, seed, seconds, 1)
	st, _, _, setupCalib, err := setUp(w, seed, 1, false)
	if err != nil {
		return nil, err
	}
	defer st.close()
	h.SetupReps, h.SetupSlowdown = 1, setupCalib.slowdown()
	budget := time.Duration(seconds) * time.Second
	t := &tracedRun{w: w, st: st, seed: seed, rec: newRecorder(), v: values{}}
	if err := t.referenceWindow(&h, budget/4); err != nil {
		return nil, err
	}
	root := t.rec.begin("traced-pass", 0, 0)
	if err := t.programPhases(root); err != nil {
		return nil, err
	}
	if err := t.layerReplay(root, budget); err != nil {
		return nil, err
	}
	t.rec.end(root)

	path, err := t.rec.write(outDir, w.name, seed)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(t.rec.spans), filepath.ToSlash(path))
	return finish(h, w, t.v, perLayer, true, &t.tally)
}

// referenceWindow warms up and runs an untraced window of at least d and
// tracedOps ops: the process, spec and service-counter metrics.
func (t *tracedRun) referenceWindow(h *header, d time.Duration) error {
	w, v := t.w, t.v
	first, warm := warmUp(t.st, h.Clients, &t.next)
	t.count(warm)
	var base counters
	var err error
	if w.serve {
		if base, _, err = scrape(t.st.members); err != nil {
			return err
		}
	}
	win := timedWindow(t.st, h.Clients, &t.next, func(done int, elapsed time.Duration) bool {
		return done >= tracedOps && elapsed >= d
	})
	log := win.log
	t.count(log)
	ops := float64(len(log.durs))
	if ops == 0 {
		return fmt.Errorf("no op completed correctly in the reference window (first error: %v)", log.firstErr)
	}
	h.Ops, h.WindowS, h.WarmupOps = len(log.durs), win.elapsed.Seconds(), warm.attempted
	h.WindowCPUS, h.StealS, h.Slowdown = win.cpu.Seconds(), win.steal.Seconds(), log.calib.slowdown()
	v["proc.first_op_ms"] = millis(first)
	v["proc.gc_count_per_op"] = float64(win.after.NumGC-win.before.NumGC) / ops
	v["proc.gc_pause_ms_per_op"] = float64(win.after.PauseTotalNs-win.before.PauseTotalNs) / 1e6 / ops
	if w.name == "search-mixed" {
		for k, name := range specNames {
			v["spec."+name+".ms_p50"] = median(millisOf(log.parts[k]))
			v["spec."+name+".plan_samples_per_s"] = t.st.refs[k].plan.Best.Throughput
		}
	}
	if !w.serve {
		return nil
	}
	now, scrapeMS, err := scrape(t.st.members)
	if err != nil {
		return err
	}
	grown := now.minus(base)
	hits, misses := grown["mario_serve_cache_hits_total"], grown["mario_serve_cache_misses_total"]
	direct := median(millisOf(log.direct))
	v["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["serve.shared_ratio"] = grown["mario_serve_flights_shared_total"] / float64(log.attempted)
	v["serve.peer_ratio"] = grown[`mario_serve_peer_routed_total{result="ok"}`] / float64(log.attempted)
	v["serve.rejected_429"], v["serve.rejected_503"] = float64(log.busy), float64(log.draining)
	v["serve.metrics_scrape_ms"] = scrapeMS
	v["serve.direct_ms_p50"] = direct
	if w.name == "serve-hot" {
		peer := median(millisOf(log.peer))
		v["serve.peer_ms_p50"], v["serve.peer_hop_ms"] = peer, peer-direct
	}
	return nil
}

// programPhases runs tracedOps plain ops and then the same inputs again with
// the program's own tracing on, so that the two medians differ by the tracing
// alone, and turns the traced ops' spans and counters into the phase metrics.
func (t *tracedRun) programPhases(root int) error {
	w, v := t.w, t.v
	reg := telemetry.NewRegistry()
	tr := &tracing{metrics: telemetry.NewSearchMetrics(reg)}
	var base counters
	var plainMS, tracedMS []float64
	var perOp [][]*telemetry.Trace
	for pass, into := range []*[]float64{&plainMS, &tracedMS} {
		for j := int64(0); j < tracedOps; j++ {
			// Fixed indices beyond any window's, not the next free ones:
			// which inputs are traced must not depend on how many ops the
			// reference window completed, or the counters would not repeat.
			i, with := sameInputStride+j, (*tracing)(nil)
			if pass == 1 {
				i, with = i+sameInputStride, tr
				tr.traces = nil
			}
			id := t.rec.begin([]string{"plain-op", "traced-op"}[pass], root, int(j)+1)
			r := t.st.op(i, with)
			*into = append(*into, millis(t.rec.end(id)))
			t.attempted++
			if r.err != nil {
				t.failed++
				t.problems = append(t.problems, fmt.Errorf("op %d of the traced pass: %w", i, r.err))
			}
			if pass == 1 {
				perOp = append(perOp, tr.traces)
			}
		}
		if pass == 0 && w.serve {
			var err error
			if base, _, err = scrape(t.st.members); err != nil {
				return err
			}
		}
	}
	traced := median(tracedMS)
	v["telemetry.traced_op_ms"] = traced
	v["telemetry.overhead_pct"] = (traced - median(plainMS)) / median(plainMS) * 100
	if w.tunerIdle {
		return nil
	}
	t.problems = append(t.problems, phaseMetrics(perOp, v)...)
	var grown counters
	var err error
	if w.serve {
		now, _, err := scrape(t.st.members)
		if err != nil {
			return err
		}
		grown = now.minus(base)
	} else if grown, err = registryCounters(reg); err != nil {
		return err
	}
	searchCounters(grown, tracedOps, v)
	v["sim.us_per_sim"] = ratio((v["graph.graph_self_ms"]+v["graph.round_self_ms"]+v["sim.sim_self_ms"])*1e3, v["sim.sims"])
	return nil
}

// layerReplay times direct calls into each module on every reference plan (a
// metric is the mean over the plans), then walks a request through the
// service's layers, then measures the fleet.
func (t *tracedRun) layerReplay(root int, budget time.Duration) error {
	w, v, refs := t.w, t.v, t.st.refs
	if w.serve {
		refs = refs[:1] // the fingerprints differ only in the machine seed
	}
	rp := &replayer{rec: t.rec, budget: budget / time.Duration(16*len(refs))}
	rp.root = t.rec.begin("layer-replay", root, 0)
	defer t.rec.end(rp.root)
	var layers []values
	for _, ref := range refs {
		lv, err := rp.replayPlanner(ref)
		if err != nil {
			return fmt.Errorf("layer replay of %s: %w", ref.name, err)
		}
		layers = append(layers, lv)
	}
	for name := range layers[0] {
		var xs []float64
		for _, lv := range layers {
			xs = append(xs, lv[name])
		}
		v[name] = mean(xs)
	}
	if !w.serve {
		return nil
	}
	ref, fresh := refs[0], uint64(freshInstances)
	request := func() api.PlanRequest { return ref.req }
	if w.name == "serve-cold" {
		request = func() api.PlanRequest { fresh++; return coldRequest(t.seed, fresh) }
	}
	// serve-cold ops decode the plan; serve-hot ops stop at the envelope.
	sv, err := rp.replayService(ref.owner, request, w.name == "serve-cold")
	if err != nil {
		return fmt.Errorf("service replay: %w", err)
	}
	for name, x := range sv {
		v[name] = x
	}
	if w.name == "serve-hot" {
		return fleetMetrics(t.rec, rp.root, t.seed, v)
	}
	return nil
}

// fleetMetrics sends the same fleetColdRequests new fingerprints to a fresh
// 3-member fleet, which shards each search over its members, and to a fresh
// standalone member, and reports what the sharding costs.
func fleetMetrics(rec *recorder, parent int, seed uint64, v values) error {
	const fleetColdRequests = 10
	run := func(name string, n int) ([]float64, counters, error) {
		ms, err := startFleet(n, 0)
		if err != nil {
			return nil, nil, err
		}
		defer stopAll(ms)
		id := rec.begin(name, parent, 0)
		defer rec.end(id)
		var times []float64
		for k := 0; k < fleetColdRequests; k++ {
			call := rec.begin(name+"#request", id, k+1)
			resp, _, err := planVia(ms[k%n], hotRequest(seed, freshInstances+uint64(k)), false, true)
			times = append(times, millis(rec.end(call)))
			if err == nil && resp.Cached {
				err = fmt.Errorf("request %d was answered from the cache", k)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		c, _, err := scrape(ms)
		return times, c, err
	}
	fleet, c, err := run("fleet-cold", 3)
	if err != nil {
		return err
	}
	single, _, err := run("single-cold", 1)
	if err != nil {
		return err
	}
	v["fleet.cold_ms_p50"] = median(fleet)
	v["fleet.shard_overhead_ms"] = median(fleet) - median(single)
	v["fleet.shard_waves"] = c["mario_search_fleet_waves_total"] / fleetColdRequests
	v["fleet.shard_fallbacks"] = c["mario_search_fleet_fallbacks_total"] / fleetColdRequests
	return nil
}
