package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"mario"
	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/profile"
	"mario/internal/scheme"
	"mario/internal/serve/api"
	"mario/internal/sim"
)

// Each call site of the layer replay is repeated siteReps times or until its
// budget is spent, whichever ends first, but at least siteMinReps times.
const (
	siteReps    = 20
	siteMinReps = 3
)

// replayer times direct calls into the repository's modules, recording a
// span of its own around each call.
type replayer struct {
	rec    *recorder
	root   int // the replay's root span
	sites  int // sites measured so far; the op ID of the next site's spans
	budget time.Duration
}

// siteCost is what one call of a site costs.
type siteCost struct {
	ms     float64 // median wall time of a call
	allocs float64 // heap allocations per call
}

func (c siteCost) us() float64 { return c.ms * 1e3 }

// site measures fn. Allocations are the process's, so they include whatever
// idle server goroutines allocate meanwhile — nothing, in practice.
func (r *replayer) site(name string, fn func() error) (siteCost, error) {
	r.sites++
	parent := r.rec.begin(name, r.root, r.sites)
	defer r.rec.end(parent)
	var durs []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for len(durs) < siteMinReps || (len(durs) < siteReps && time.Since(t0) < r.budget) {
		id := r.rec.begin(name+"#call", parent, r.sites)
		err := fn()
		durs = append(durs, millis(r.rec.end(id)))
		if err != nil {
			return siteCost{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	return siteCost{ms: median(durs), allocs: float64(after.Mallocs-before.Mallocs) / float64(len(durs))}, nil
}

func instrCount(s *pipeline.Schedule) float64 {
	n := 0
	for _, l := range s.Lists {
		n += len(l)
	}
	return float64(n)
}

// replayPlanner calls each planner module the way the tuner does for the
// winning grid point of ref's plan, then executes and round-trips the plan.
func (r *replayer) replayPlanner(ref *reference) (values, error) {
	v := values{}
	best := ref.plan.Best
	src := ref.plan.Profiler
	newProfiler := func() *profile.Profiler {
		return &profile.Profiler{Model: src.Model, HW: src.HW, Spec: src.Spec, Devices: src.Devices, Iters: src.Iters}
	}
	tp := max(ref.conf.TP, 1)
	stages := best.Schedule.NumStages()
	estimator := func(p *profile.Profiler) (*cost.Estimator, error) {
		if best.Place == nil {
			return p.EstimatorFor(stages, best.MicroBatch, tp)
		}
		est, err := p.EstimatorForPartition(best.Place.LayersPerStage, best.MicroBatch, tp)
		if err == nil {
			est.DeviceSpeed = best.Place.RankSpeed
		}
		return est, err
	}

	// profile: a cold call probes the emulated machine and fits the
	// regression; a warm one only assembles the estimator.
	c, err := r.site("profile.EstimatorFor(cold)", func() error {
		_, err := estimator(newProfiler())
		return err
	})
	if err != nil {
		return nil, err
	}
	v["profile.fit_cold_ms"], v["profile.fit_allocs"] = c.ms, c.allocs
	prof := newProfiler()
	est, err := estimator(prof)
	if err != nil {
		return nil, err
	}
	if c, err = r.site("profile.EstimatorFor(warm)", func() error {
		_, err := estimator(prof)
		return err
	}); err != nil {
		return nil, err
	}
	v["profile.estimator_warm_us"] = c.us()

	// scheme: build the base schedule of the point.
	var base *pipeline.Schedule
	if c, err = r.site("scheme.Build", func() error {
		base, err = scheme.Build(best.Scheme, scheme.Config{Devices: best.PP, Micros: best.Micros})
		return err
	}); err != nil {
		return nil, err
	}
	v["scheme.build_ms"], v["scheme.instrs"] = c.ms, instrCount(base)

	// place: the layer model and the partition/placement fixpoint, on the
	// point's placement. (The tuner also passes the schedule's warm-up
	// depth; the replay leaves it at 1 per stage.)
	memLimit, err := mario.ParseMemory(ref.conf.MemoryPerDevice)
	if err != nil {
		return nil, err
	}
	perLayer := make([]int, src.Model.Layers)
	for i := range perLayer {
		perLayer[i] = 1
	}
	layerEst, err := prof.EstimatorForPartition(perLayer, best.MicroBatch, tp)
	if err != nil {
		return nil, err
	}
	rankSpeed := place.RankSpeeds(ref.conf.DeviceSpeeds, best.PP, best.DP)
	if c, err = r.site("place.CoOptimize", func() error {
		_, err := place.CoOptimize(place.NewLayerModel(layerEst), base.Placement, rankSpeed, place.Options{
			MemCap: memLimit, FrameworkMem: layerEst.FrameworkMem, BufBytes: layerEst.ActP2PBytes + layerEst.GradP2PBytes})
		return err
	}); err != nil {
		return nil, err
	}
	v["place.coopt_ms"], v["place.coopt_allocs"] = c.ms, c.allocs

	// graph: the four passes with their simulator-guided prepose rounds.
	simOpts := sim.Options{DP: best.DP, MemLimit: memLimit}
	var tuned *pipeline.Schedule
	if c, err = r.site("graph.Optimize", func() error {
		tuned, _, err = graph.Optimize(base, graph.Options{Estimator: est, Sim: simOpts, MaxRounds: 8})
		return err
	}); err != nil {
		return nil, err
	}
	v["graph.optimize_ms"], v["graph.optimize_allocs"], v["graph.instrs_after"] = c.ms, c.allocs, instrCount(tuned)

	// sim: the winning schedule on a fresh engine per call, then on one
	// reused engine.
	if c, err = r.site("sim.Simulate(cold)", func() error {
		_, err := sim.Simulate(best.Schedule, est, simOpts)
		return err
	}); err != nil {
		return nil, err
	}
	v["sim.simulate_cold_ms"], v["sim.simulate_cold_allocs"] = c.ms, c.allocs
	eng := &sim.Simulator{}
	if c, err = r.site("sim.Simulator.Simulate(warm)", func() error {
		_, err := eng.Simulate(best.Schedule, est, simOpts)
		return err
	}); err != nil {
		return nil, err
	}
	v["sim.simulate_warm_us"] = c.us()

	// cluster and obs: execute the plan on the emulator with events on, then
	// align the events with the prediction.
	const iters = 3
	var rep *mario.RunReport
	if c, err = r.site("mario.Run", func() error {
		rep, err = mario.RunWithOptions(ref.plan, iters, mario.RunOptions{CollectEvents: true})
		return err
	}); err != nil {
		return nil, err
	}
	events := float64(len(rep.Events)) / iters
	v["cluster.run_ms_per_iter"], v["cluster.events_per_iter"] = c.ms/iters, events
	v["cluster.host_us_per_event"] = ratio(c.us()/iters, events)
	var drift *mario.DriftReport
	if c, err = r.site("mario.Drift", func() error {
		drift, err = mario.Drift(ref.plan, rep)
		return err
	}); err != nil {
		return nil, err
	}
	var mapes []float64
	for _, k := range drift.Kinds {
		mapes = append(mapes, k.MAPE*100)
	}
	v["obs.drift_ms"], v["obs.time_mape_pct"], v["obs.mem_mape_pct"] = c.ms, mean(mapes), drift.MemMAPE*100

	// plan_json: the codec, which stores the whole search trace beside the
	// winner.
	var data []byte
	if c, err = r.site("json.Marshal(plan)", func() error {
		data, err = json.Marshal(ref.plan)
		return err
	}); err != nil {
		return nil, err
	}
	v["plan_json.encode_ms"], v["plan_json.encode_allocs"], v["plan_json.bytes"] = c.ms, c.allocs, float64(len(data))
	if c, err = r.site("mario.LoadPlan", func() error {
		p, err := mario.LoadPlan(data)
		if err == nil {
			err = samePlan(p, ref.plan)
		}
		return err
	}); err != nil {
		return nil, err
	}
	v["plan_json.decode_ms"], v["plan_json.decode_allocs"] = c.ms, c.allocs
	bestJSON, err := json.Marshal(ref.plan.Best)
	if err != nil {
		return nil, err
	}
	v["plan_json.best_share_pct"] = float64(len(bestJSON)) / float64(len(data)) * 100
	return v, nil
}

// replayService walks one request through the service's layers: request
// checks, the handler without a network, the same request over TCP, the
// client's two decoding steps, and the whole op as a client runs it — what
// the parts leave unexplained of the whole is serve.unattributed_ms. request
// returns the request to send: a new fingerprint each time on serve-cold, a
// warm one on serve-hot; decode says whether the workload's op decodes the
// plan.
func (r *replayer) replayService(m *member, request func() api.PlanRequest, decode bool) (values, error) {
	v := values{}
	c, err := r.site("PlanRequest.Validate+Fingerprint", func() error {
		req := request()
		model, err := req.Validate()
		if err == nil && req.Fingerprint(model) == "" {
			err = fmt.Errorf("empty fingerprint")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	v["serve.validate_fingerprint_us"] = c.us()

	body := func() ([]byte, error) { return json.Marshal(request()) }
	handler := m.srv.Handler()
	if c, err = r.site("Handler.ServeHTTP(recorder)", func() error {
		b, err := body()
		if err != nil {
			return err
		}
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(b)))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rr.Code, rr.Body.String())
		}
		return nil
	}); err != nil {
		return nil, err
	}
	v["serve.handler_ms"] = c.ms

	var envelope []byte
	tcp, err := r.site("POST /v1/plan (TCP)", func() error {
		b, err := body()
		if err != nil {
			return err
		}
		resp, err := http.Post(m.url+"/v1/plan", "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if envelope, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", resp.StatusCode, envelope)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	v["serve.transport_ms"], v["serve.resp_bytes"] = tcp.ms-c.ms, float64(len(envelope))

	var pr api.PlanResponse
	if c, err = r.site("json.Unmarshal(envelope)", func() error {
		pr = api.PlanResponse{}
		return json.Unmarshal(envelope, &pr)
	}); err != nil {
		return nil, err
	}
	v["client.envelope_decode_ms"] = c.ms
	if c, err = r.site("mario.LoadPlan(response)", func() error {
		_, err := mario.LoadPlan(pr.Plan)
		return err
	}); err != nil {
		return nil, err
	}
	v["client.load_plan_ms"] = c.ms

	whole, err := r.site("client.Plan (whole op)", func() error {
		_, _, err := planVia(m, request(), false, decode)
		return err
	})
	if err != nil {
		return nil, err
	}
	parts := v["serve.handler_ms"] + v["serve.transport_ms"] + v["client.envelope_decode_ms"]
	if decode {
		parts += v["client.load_plan_ms"]
	}
	v["serve.unattributed_ms"] = whole.ms - parts
	return v, nil
}
