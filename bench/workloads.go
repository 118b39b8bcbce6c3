package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"mario"
	"mario/internal/profile"
	"mario/internal/serve"
	"mario/internal/serve/api"
	"mario/internal/serve/client"
	"mario/internal/telemetry"
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json carries
// the same names and reasons.
type workload struct {
	name string
	why  string
	// tailPct pins op_ms_tail: the highest percentile that keeps at least
	// minBeyond samples beyond it in a run of run_seconds at the baseline.
	tailPct float64
	// clients is the number of closed-loop load generators.
	clients int
	// serve marks the workloads that go through mariod; tunerIdle the one
	// whose ops never reach the tuner.
	serve, tunerIdle bool
	// prepare sets the workload up from the seed: reference plans, oracle
	// checks, servers, warm caches.
	prepare func(seed uint64) (*state, error)
}

var workloads = []*workload{
	{
		name:    "search-large",
		why:     "One GPT3-13B/64-device Auto search per op, the paper's largest scale: graph passes, prepose rounds and the simulator dominate; p60 tail.",
		tailPct: 60, clients: 1, prepare: prepareSearch(largeSpecs),
	},
	{
		name:    "search-mixed",
		why:     "A round of four small distinct searches (LLaMA 4-dev, hetero placement, ZB-H1, DualPipe-D): per-search set-up, probe pass, profile fit and place DP dominate; p90 tail.",
		tailPct: 90, clients: 1, prepare: prepareSearch(mixedSpecs),
	},
	{
		name:    "serve-cold",
		why:     "client.Plan+Decode of a new fingerprint per request against one mariod member: search, plan encode, HTTP and client decode all block the caller; p80 tail.",
		tailPct: 80, clients: 1, serve: true, prepare: prepareServeCold,
	},
	{
		name:    "serve-hot",
		why:     "2 clients read 4 warm fingerprints from a 3-member loopback fleet: fingerprint, cache read, re-enveloping and the peer hop on 2/3 of requests; tuner idle; p95 tail.",
		tailPct: 95, clients: 2, serve: true, tunerIdle: true, prepare: prepareServeHot,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// searchSpec is one planner input: a model and a Config whose emulated
// machine is seeded by the caller.
type searchSpec struct {
	name  string
	model string
	conf  mario.Config
}

// machine is the emulated hardware of instance k of a run: the workload seed
// picks a stream of machine seeds, disjoint from every other seed's, and each
// machine seed is a distinct planner input (another set of profiled costs)
// and a distinct service fingerprint. The canonical input uses
// profile.DefaultMachine unchanged.
func machine(seed, k uint64) profile.MachineSpec {
	m := profile.DefaultMachine
	m.Seed = seed*1_000_003 + k
	return m
}

// searchInstances is the period of a search workload's input stream: op i
// plans instance i mod searchInstances. How long a search takes depends on
// the instance (one GPT3-13B/64 instance in ten explores half as many points
// again), so a run draws many instances to report the population's median,
// and revisits each to check that the planner repeats itself.
const searchInstances = 16

func largeSpecs() []searchSpec {
	return []searchSpec{{name: "gpt13b-64", model: "GPT3-13B", conf: mario.Config{
		PipelineScheme: "Auto", NumDevices: 64, GlobalBatchSize: 256, MemoryPerDevice: "40G", Workers: 1}}}
}

func mixedSpecs() []searchSpec {
	speeds := []float64{1, 1, 1, 0.8, 1, 1, 1, 1}
	return []searchSpec{
		{name: "llama3b-4", model: "LLaMA2-3B", conf: mario.Config{
			PipelineScheme: "Auto", NumDevices: 4, GlobalBatchSize: 16, MemoryPerDevice: "40G", Workers: 1}},
		{name: "hetero-8", model: "GPT3-13B", conf: mario.Config{
			PipelineScheme: "V", NumDevices: 8, GlobalBatchSize: 32, MemoryPerDevice: "72G", Workers: 1,
			DeviceSpeeds: speeds, Placement: "auto"}},
		{name: "zbh1-16", model: "GPT3-13B", conf: mario.Config{
			PipelineScheme: "Z", NumDevices: 16, GlobalBatchSize: 64, MemoryPerDevice: "40G", Workers: 1}},
		{name: "dualpipe-8", model: "GPT3-1.6B", conf: mario.Config{
			PipelineScheme: "D", NumDevices: 8, GlobalBatchSize: 32, MemoryPerDevice: "80G", Workers: 1}},
	}
}

// reference is a plan the ops are checked against, with the input that
// produced it. The layer replay works on its winning grid point.
type reference struct {
	name  string
	model mario.ModelConfig
	conf  mario.Config
	plan  *mario.Plan
	// On serve workloads: the request, the encoded plan the service must
	// return byte for byte, and the member that owns the fingerprint.
	req   api.PlanRequest
	bytes []byte
	owner *member
}

// answer is what a search returned for an instance; every repeat must return
// it again.
type answer struct {
	label      string
	throughput float64
}

// opResult is the outcome of one closed-loop op.
type opResult struct {
	err error
	// peer reports that a fleet member forwarded the request to its owner.
	peer bool
	// parts are the wall times of the op's sub-searches (search-mixed).
	parts []time.Duration
}

// tracing asks an op to run with the program's own tracing on.
type tracing struct {
	metrics *telemetry.SearchMetrics
	// traces receives one frozen span tree per search the op ran.
	traces []*telemetry.Trace
}

// state is one set-up of a workload.
type state struct {
	// op runs the i-th operation and checks its output. tr is nil in the
	// timed window.
	op   func(i int64, tr *tracing) opResult
	refs []*reference
	// canonical plans the workload's canonical inputs (default machine),
	// through the same path the ops take; the exact metrics come from it.
	canonical func() ([]*mario.Plan, error)
	members   []*member
	close     func()
}

// optimizeChecked plans a reference with the branch-and-bound search and
// checks it against the independent oracle: the exhaustive grid walk must
// choose the same configuration with bit-equal throughput.
func optimizeChecked(name string, conf mario.Config, model mario.ModelConfig) (*mario.Plan, error) {
	plan, err := mario.Optimize(conf, model)
	if err != nil {
		return nil, fmt.Errorf("%s: reference plan: %w", name, err)
	}
	grid := conf
	grid.NoBnB = true
	oracle, err := mario.Optimize(grid, model)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle plan: %w", name, err)
	}
	if err := samePlan(oracle, plan); err != nil {
		return nil, fmt.Errorf("%s: branch-and-bound disagrees with the grid walk: %w", name, err)
	}
	return plan, nil
}

// answerOf is what a plan answers; a plan that cannot run or predicts no
// throughput is no answer.
func answerOf(p *mario.Plan) (answer, error) {
	a := answer{p.Best.Label(), p.Best.Throughput}
	if p.Best.Schedule == nil || a.throughput <= 0 {
		return a, errors.New("plan has no schedule or no throughput")
	}
	return a, nil
}

// samePlan checks that got is a valid plan and answers what want does: the
// same configuration with bit-equal throughput.
func samePlan(got, want *mario.Plan) error {
	a, err := answerOf(got)
	if err != nil {
		return err
	}
	if b := (answer{want.Best.Label(), want.Best.Throughput}); a != b {
		return fmt.Errorf("chose %s at %v, want %s at %v", a.label, a.throughput, b.label, b.throughput)
	}
	return nil
}

func prepareSearch(specs func() []searchSpec) func(uint64) (*state, error) {
	return func(seed uint64) (*state, error) {
		st := &state{close: func() {}}
		// Instance 0 of every spec is the reference: checked against the
		// oracle here, replayed layer by layer in the traced pass.
		for _, s := range specs() {
			conf := s.conf
			conf.Machine = machine(seed, 0)
			model := mario.Model(s.model)
			plan, err := optimizeChecked(s.name, conf, model)
			if err != nil {
				return nil, err
			}
			st.refs = append(st.refs, &reference{name: s.name, model: model, conf: conf, plan: plan})
		}
		// first[k][inst] is the first answer for instance inst of spec k.
		first := make([][searchInstances]*answer, len(st.refs))
		for k, ref := range st.refs {
			first[k][0] = &answer{ref.plan.Best.Label(), ref.plan.Best.Throughput}
		}
		st.op = func(i int64, tr *tracing) opResult {
			inst := uint64(i) % searchInstances
			res := opResult{parts: make([]time.Duration, len(st.refs))}
			for k, ref := range st.refs {
				conf := ref.conf
				conf.Machine = machine(seed, inst)
				var tracer *telemetry.Tracer
				if tr != nil {
					tracer = telemetry.New(ref.name)
					conf.Tracer, conf.Metrics = tracer, tr.metrics
				}
				t0 := time.Now()
				plan, err := mario.Optimize(conf, ref.model)
				res.parts[k] = time.Since(t0)
				if err == nil {
					err = checkAnswer(&first[k][inst], plan)
				}
				if err != nil && res.err == nil {
					res.err = fmt.Errorf("%s instance %d: %w", ref.name, inst, err)
				}
				if tr != nil {
					tr.traces = append(tr.traces, tracer.Snapshot())
				}
			}
			return res
		}
		st.canonical = func() ([]*mario.Plan, error) {
			var plans []*mario.Plan
			for _, s := range specs() {
				plan, err := mario.Optimize(s.conf, mario.Model(s.model))
				if err != nil {
					return nil, fmt.Errorf("%s: canonical plan: %w", s.name, err)
				}
				plans = append(plans, plan)
			}
			return plans, nil
		}
		return st, nil
	}
}

// checkAnswer checks a search's plan: it must be a valid answer, and the one
// this instance got before. Search workloads have one client, so slot needs
// no lock.
func checkAnswer(slot **answer, plan *mario.Plan) error {
	got, err := answerOf(plan)
	switch {
	case err != nil:
		return err
	case *slot == nil:
		*slot = &got
	case **slot != got:
		return fmt.Errorf("chose %s at %v, but %s at %v before", got.label, got.throughput, (*slot).label, (*slot).throughput)
	}
	return nil
}

// member is one in-process mariod: a serve.Server behind a real HTTP server
// on a loopback TCP port.
type member struct {
	url  string
	srv  *serve.Server
	http *http.Server
	done chan struct{}
	cl   *client.Client
}

// listen reserves n loopback ports, so fleet members can be told each
// other's addresses before any of them starts.
func listen(n int) ([]net.Listener, []string, error) {
	var lns []net.Listener
	var urls []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, nil, fmt.Errorf("loopback listener: %w", err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	return lns, urls, nil
}

func startMember(ln net.Listener, url string, opts serve.Options) *member {
	m := &member{url: url, srv: serve.New(opts), done: make(chan struct{}), cl: client.New(url)}
	m.http = &http.Server{Handler: m.srv.Handler()}
	go func() {
		defer close(m.done)
		m.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return m
}

// stop shuts the HTTP server down, then the planner's worker pool, and waits
// for both.
func (m *member) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.http.Shutdown(ctx); err != nil {
		m.http.Close()
	}
	<-m.done
	m.srv.Close()
}

func stopAll(ms []*member) {
	for _, m := range ms {
		m.stop()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// startFleet starts n members that know each other; n = 1 gives a
// standalone member.
func startFleet(n, cacheSize int) ([]*member, error) {
	lns, urls, err := listen(n)
	if err != nil {
		return nil, err
	}
	var ms []*member
	for i := range lns {
		opts := serve.Options{Workers: 1, TunerWorkers: 1, CacheSize: cacheSize}
		if n > 1 {
			opts.Self, opts.Fleet = urls[i], urls
		}
		ms = append(ms, startMember(lns[i], urls[i], opts))
	}
	return ms, nil
}

// coldRequest is the serve-cold request family: GPT3-1.6B on 8 devices; each
// instance is a distinct fingerprint.
func coldRequest(seed, k uint64) api.PlanRequest {
	m := machine(seed, k)
	return api.PlanRequest{Model: "GPT3-1.6B", Devices: 8, GlobalBatch: 64, Memory: "40G", Scheme: "Auto", Machine: &m}
}

// hotRequest is the serve-hot request family: LLaMA2-3B on 4 devices.
func hotRequest(seed, k uint64) api.PlanRequest {
	m := machine(seed, k)
	return api.PlanRequest{Model: "LLaMA2-3B", Devices: 4, GlobalBatch: 16, Memory: "40G", Scheme: "Auto", Machine: &m}
}

// canonicalRequest is req on the default machine.
func canonicalRequest(req api.PlanRequest) api.PlanRequest {
	req.Machine = nil
	return req
}

// localReference plans req in process, the way the service must, and checks
// the plan against the oracle.
func localReference(name string, req api.PlanRequest) (*reference, error) {
	model, err := req.Validate()
	if err != nil {
		return nil, err
	}
	conf := req.Config(1)
	plan, err := optimizeChecked(name, conf, model)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(plan)
	if err != nil {
		return nil, err
	}
	return &reference{name: name, model: model, conf: conf, plan: plan, req: req, bytes: data}, nil
}

// planVia sends req to m as a user of the service does and, if decode is
// set, decodes the plan.
func planVia(m *member, req api.PlanRequest, traced, decode bool) (*api.PlanResponse, *mario.Plan, error) {
	cl := m.cl
	if traced {
		cl = client.New(m.url)
		cl.Trace = true
	}
	resp, err := cl.Plan(context.Background(), req)
	if err != nil || !decode {
		return resp, nil, err
	}
	plan, err := client.Decode(resp)
	if err != nil {
		return resp, nil, fmt.Errorf("decoding plan: %w", err)
	}
	return resp, plan, nil
}

func serveCanonical(m *member, req api.PlanRequest) func() ([]*mario.Plan, error) {
	return func() ([]*mario.Plan, error) {
		_, plan, err := planVia(m, canonicalRequest(req), false, true)
		if err != nil {
			return nil, fmt.Errorf("canonical request: %w", err)
		}
		return []*mario.Plan{plan}, nil
	}
}

func prepareServeCold(seed uint64) (*state, error) {
	ref, err := localReference("cold-0", coldRequest(seed, 0))
	if err != nil {
		return nil, err
	}
	ms, err := startFleet(1, 4)
	if err != nil {
		return nil, err
	}
	m := ms[0]
	ref.owner = m
	st := &state{refs: []*reference{ref}, members: ms, close: func() { stopAll(ms) }}
	resp, _, err := planVia(m, ref.req, false, true)
	if err == nil && (resp.Cached || !bytes.Equal(resp.Plan, ref.bytes)) {
		err = errors.New("the served plan is not byte-identical to json.Marshal of an in-process mario.Optimize")
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("serve-cold request 0: %w", err)
	}
	// Instance 0 was the reference; the ops continue from instance 1.
	st.op = func(i int64, tr *tracing) opResult {
		resp, plan, err := planVia(m, coldRequest(seed, 1+uint64(i)), tr != nil, true)
		switch {
		case err != nil:
			return opResult{err: err}
		case resp.Cached || resp.Shared:
			return opResult{err: errors.New("a new fingerprint was answered from the cache")}
		case plan.Best.Throughput <= 0:
			return opResult{err: errors.New("plan has no throughput")}
		}
		if tr != nil {
			// One client, so the newest flight record is this request's.
			tr.traces = append(tr.traces, m.srv.FlightRecorder().Recent()[0].Trace)
		}
		return opResult{}
	}
	st.canonical = serveCanonical(m, ref.req)
	return st, nil
}

const hotFingerprints = 4

func prepareServeHot(seed uint64) (*state, error) {
	ms, err := startFleet(3, 0)
	if err != nil {
		return nil, err
	}
	st := &state{members: ms, close: func() { stopAll(ms) }}
	for f := 0; f < hotFingerprints; f++ {
		ref, err := localReference(fmt.Sprintf("hot-%d", f), hotRequest(seed, uint64(f)))
		if err == nil {
			// Warm the owner's cache through member 0; the answer names
			// the owner.
			var resp *api.PlanResponse
			resp, _, err = planVia(ms[0], ref.req, false, true)
			if err == nil && !bytes.Equal(resp.Plan, ref.bytes) {
				err = errors.New("the fleet's plan is not byte-identical to an in-process mario.Optimize")
			}
			if err == nil {
				ref.owner = ms[0]
				for _, m := range ms {
					if m.url == resp.Peer {
						ref.owner = m
					}
				}
			}
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("serve-hot fingerprint %d: %w", f, err)
		}
		st.refs = append(st.refs, ref)
	}
	st.op = func(i int64, tr *tracing) opResult {
		m := ms[i%int64(len(ms))]
		ref := st.refs[(i/int64(len(ms)))%hotFingerprints]
		resp, _, err := planVia(m, ref.req, tr != nil, false)
		switch {
		case err != nil:
			return opResult{err: err}
		case !resp.Cached:
			return opResult{err: errors.New("a warm fingerprint missed the cache")}
		case !bytes.Equal(resp.Plan, ref.bytes):
			return opResult{err: errors.New("cached plan differs from the reference bytes")}
		}
		return opResult{peer: resp.Peer != ""}
	}
	st.canonical = serveCanonical(ms[0], st.refs[0].req)
	return st, nil
}

// refusal classifies a failed request by the status the client reported.
func refusal(err error) (busy, draining bool) {
	if err == nil {
		return false, false
	}
	msg := err.Error()
	return strings.Contains(msg, "429 "), strings.Contains(msg, "503 ")
}

// opLog is what a window of ops produced.
type opLog struct {
	mu        sync.Mutex
	durs      []time.Duration
	parts     [][]time.Duration // per sub-search, when ops report parts
	direct    []time.Duration
	peer      []time.Duration
	attempted int
	failed    int
	busy      int // refused with 429
	draining  int // refused with 503
	firstErr  error
	calib     calibLog
}

func (l *opLog) add(d time.Duration, r opResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if r.err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = r.err
		}
		busy, draining := refusal(r.err)
		if busy {
			l.busy++
		}
		if draining {
			l.draining++
		}
		return
	}
	l.durs = append(l.durs, d)
	if r.peer {
		l.peer = append(l.peer, d)
	} else {
		l.direct = append(l.direct, d)
	}
	if r.parts != nil {
		if l.parts == nil {
			l.parts = make([][]time.Duration, len(r.parts))
		}
		for k, p := range r.parts {
			l.parts[k] = append(l.parts[k], p)
		}
	}
}
