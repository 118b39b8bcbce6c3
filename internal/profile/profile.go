// Package profile implements Mario's lightweight profiling (§5.2): short
// probes on the emulated cluster sample per-instruction timings and peak
// memory (cluster.Machine.Sample draws what a run would measure, without
// running the devices), and linear regressions y = a·n + b over the number of
// transformer blocks n turn them into the per-stage estimators the simulator
// consumes. The bias b captures the framework overhead.
//
// The paper's guidelines are followed directly:
//
//  1. the transformer block is the basic profiling unit (the probe sweep
//     varies blocks per stage);
//  2. samples are read from the (D-1)-th device of a 1F1B probe pipeline,
//     which holds several blocks and has headroom;
//  3. memory is split into a static part (framework + weights) and a dynamic
//     part (activations per block), separated by the regression intercept;
//  4. only ten training iterations are collected per probe.
package profile

import (
	"fmt"
	"math"
	"sync"

	"mario/internal/cluster"
	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/regress"
	"mario/internal/scheme"
)

// MachineSpec describes the hidden imperfections of the hardware being
// profiled; the profiler observes them only through measurements.
type MachineSpec struct {
	Noise         float64
	ExtraOverhead float64
	MemSlack      float64
	Hetero        float64
	Seed          uint64
}

// Validate reports whether the emulator's arithmetic is defined for the spec.
// Every field is finite and none is negative. Noise and Hetero stay below 1:
// cluster scales a duration by 1 + x·u with u in [−1, 1], and that factor has
// to stay positive. MemSlack 0 keeps meaning 1 (no slack), as cluster reads it.
func (m MachineSpec) Validate() error {
	for _, f := range []struct {
		name     string
		v        float64
		belowOne bool
	}{
		{"Noise", m.Noise, true},
		{"Hetero", m.Hetero, true},
		{"ExtraOverhead", m.ExtraOverhead, false},
		{"MemSlack", m.MemSlack, false},
	} {
		switch {
		case math.IsNaN(f.v) || math.IsInf(f.v, 0):
			return fmt.Errorf("profile: machine %s must be finite (got %g)", f.name, f.v)
		case f.v < 0:
			return fmt.Errorf("profile: machine %s must not be negative (got %g)", f.name, f.v)
		case f.belowOne && f.v >= 1:
			return fmt.Errorf("profile: machine %s must be below 1 (got %g)", f.name, f.v)
		}
	}
	return nil
}

// DefaultMachine models a realistic software stack: ±4% jitter, 180 µs of
// unmodeled per-instruction overhead, 6% allocator slack, and ±5% static
// per-device speed variation the single-device profiler cannot see.
var DefaultMachine = MachineSpec{Noise: 0.04, ExtraOverhead: 180e-6, MemSlack: 1.06, Hetero: 0.05, Seed: 20250301}

// Profiler runs probes for one (model, hardware) pair and builds estimators
// for arbitrary pipeline shapes. It is safe for concurrent use.
type Profiler struct {
	Model cost.ModelConfig
	HW    cost.Hardware
	Spec  MachineSpec
	// Devices is the probe pipeline depth; 0 means 4.
	Devices int
	// Iters is the number of probe training iterations; 0 means the
	// paper's 10.
	Iters int

	mu    sync.Mutex
	cache map[profileKey]*fit
}

type profileKey struct {
	mbs, tp int
}

// fit is the outcome of one probe sweep.
type fit struct {
	fw, bw regress.Linear // seconds vs blocks per stage
	// stage-boundary extras measured on the probe's first/last stages.
	firstExtra, lastExtra float64
	actPerBlock           float64 // bytes per block per micro-batch
	frameworkMem          float64
	commAct, commGrad     float64 // measured transfer seconds
	optTime               float64
	overhead              float64 // regression bias b (per-instruction)
}

// NewMachine builds the emulated hardware for a concrete training job: the
// analytic cost model is the physical truth, and the spec's imperfections
// are layered on top. A non-nil assignment makes the machine mirror it: the
// truth follows its layer→stage partition, and the machine applies its
// per-rank speed factors to compute durations itself (the truth estimator
// carries no DeviceSpeed — declared heterogeneity is a property of the
// hardware, not of the cost model the planner feeds the simulator). A nil
// assignment is the even split on a homogeneous cluster.
func (p *Profiler) NewMachine(model cost.ModelConfig, stages, mbs, tp int, pa *place.Assignment) (*cluster.Machine, error) {
	var part []int
	var speeds []float64
	if pa != nil {
		part, speeds = pa.LayersPerStage, pa.RankSpeed
	}
	truth, err := cost.Analytic(cost.AnalyticConfig{Model: model, HW: p.HW, Stages: stages, MicroBatch: mbs, TP: tp, Partition: part})
	if err != nil {
		return nil, err
	}
	return &cluster.Machine{
		Truth:         truth,
		Noise:         p.Spec.Noise,
		ExtraOverhead: p.Spec.ExtraOverhead,
		MemSlack:      p.Spec.MemSlack,
		Hetero:        p.Spec.Hetero,
		Seed:          p.Spec.Seed,
		SpeedFactors:  append([]float64(nil), speeds...),
	}, nil
}

// EstimatorFor returns a profiled estimator for a pipeline with the given
// stage count, micro-batch size and TP degree, running the probe sweep on
// first use (cached per (mbs, tp)).
func (p *Profiler) EstimatorFor(stages, mbs, tp int) (*cost.Estimator, error) {
	if tp <= 0 {
		tp = 1
	}
	if p.Model.Layers < stages {
		return nil, fmt.Errorf("profile: %d layers cannot fill %d stages", p.Model.Layers, stages)
	}
	f, err := p.fitFor(mbs, tp)
	if err != nil {
		return nil, err
	}
	return p.assemble(f, cost.Partition(p.Model.Layers, stages), mbs, tp)
}

// EstimatorForPartition returns a profiled estimator whose stage costs follow
// an explicit layer→stage partition instead of the even split: part[s]
// transformer blocks on stage s. The uniform partition yields an estimator
// bit-identical to EstimatorFor's.
func (p *Profiler) EstimatorForPartition(part []int, mbs, tp int) (*cost.Estimator, error) {
	if tp <= 0 {
		tp = 1
	}
	if err := cost.ValidatePartition(part, p.Model.Layers, len(part)); err != nil {
		return nil, err
	}
	f, err := p.fitFor(mbs, tp)
	if err != nil {
		return nil, err
	}
	return p.assemble(f, part, mbs, tp)
}

func (p *Profiler) fitFor(mbs, tp int) (*fit, error) {
	key := profileKey{mbs: mbs, tp: tp}
	p.mu.Lock()
	if p.cache == nil {
		p.cache = make(map[profileKey]*fit)
	}
	if f, ok := p.cache[key]; ok {
		p.mu.Unlock()
		return f, nil
	}
	p.mu.Unlock()

	f, err := p.probe(mbs, tp)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.cache[key] = f
	p.mu.Unlock()
	return f, nil
}

// probe samples 1F1B probe jobs with 1..4 transformer blocks per stage on the
// emulated cluster and fits the regressions. Each probe draws every device's
// measured durations in list order (cluster.Machine.Sample) instead of
// running the devices: the fit reads only the samples and the peak memory,
// and neither depends on how the devices interleave.
func (p *Profiler) probe(mbs, tp int) (*fit, error) {
	d := p.Devices
	if d <= 0 {
		d = 4
	}
	iters := p.Iters
	if iters <= 0 {
		iters = 10
	}
	maxBlocks := p.Model.Layers / d
	if maxBlocks < 1 {
		return nil, fmt.Errorf("profile: model %s has fewer layers (%d) than probe devices (%d)", p.Model.Name, p.Model.Layers, d)
	}
	var ks []int
	for k := 1; k <= maxBlocks && len(ks) < 4; k++ {
		ks = append(ks, k)
	}
	if len(ks) < 2 {
		// A single feasible block count cannot anchor a regression; probe
		// with a shallower pipeline instead.
		return (&Profiler{Model: p.Model, HW: p.HW, Spec: p.Spec, Devices: 2, Iters: iters}).probe(mbs, tp)
	}

	probeDev := d - 2 // the paper's "(D-1)-th device", 0-indexed
	if probeDev < 0 {
		probeDev = 0
	}
	onFly := float64(d - probeDev) // on-the-fly micros at peak on that device

	sched, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: d, Micros: 2 * d})
	if err != nil {
		return nil, err
	}
	var xs, fwYs, bwYs, memYs []float64
	var commActs, commGrads, optTimes []float64
	var lastFirstExtra, lastLastExtra float64
	for _, k := range ks {
		model := p.Model.WithLayers(k * d)
		mach, err := p.NewMachine(model, d, mbs, tp, nil)
		if err != nil {
			return nil, err
		}
		durs, peakMem, err := mach.Sample(sched, iters)
		if err != nil {
			return nil, fmt.Errorf("profile: probe k=%d: %w", k, err)
		}
		devSamples := durs[probeDev]
		fw := regress.Mean(devSamples[cluster.SampleKey{Kind: pipeline.Forward, Stage: probeDev}])
		bw := regress.Mean(devSamples[cluster.SampleKey{Kind: pipeline.Backward, Stage: probeDev}])
		xs = append(xs, float64(k))
		fwYs = append(fwYs, fw)
		bwYs = append(bwYs, bw)

		// Dynamic memory: subtract the analytically known weight bytes of
		// the probe device (middle stage: blocks only, no embedding).
		weights := model.ParamsPerLayer() * float64(k) / float64(tp) * cost.BytesPerParamTraining
		memYs = append(memYs, peakMem[probeDev]-weights)

		commActs = append(commActs, regress.Mean(allDevices(durs, cluster.SampleKey{Kind: pipeline.SendAct, Stage: probeDev})))
		commGrads = append(commGrads, regress.Mean(allDevices(durs, cluster.SampleKey{Kind: pipeline.SendGrad, Stage: probeDev})))
		optTimes = append(optTimes, regress.Mean(allDevices(durs, cluster.SampleKey{Kind: pipeline.OptimizerStep, Stage: -1})))

		// First/last stage extras (embedding, LM head) relative to a plain
		// block stage, measured at the largest sweep point.
		fw0 := regress.Mean(durs[0][cluster.SampleKey{Kind: pipeline.Forward, Stage: 0}])
		fwL := regress.Mean(durs[d-1][cluster.SampleKey{Kind: pipeline.Forward, Stage: d - 1}])
		lastFirstExtra = fw0 - fw
		lastLastExtra = fwL - fw
	}

	fwLine, err := regress.Fit(xs, fwYs)
	if err != nil {
		return nil, fmt.Errorf("profile: forward fit: %w", err)
	}
	bwLine, err := regress.Fit(xs, bwYs)
	if err != nil {
		return nil, fmt.Errorf("profile: backward fit: %w", err)
	}
	memLine, err := regress.Fit(xs, memYs)
	if err != nil {
		return nil, fmt.Errorf("profile: memory fit: %w", err)
	}

	f := &fit{
		fw:           fwLine,
		bw:           bwLine,
		firstExtra:   max0(lastFirstExtra),
		lastExtra:    max0(lastLastExtra),
		actPerBlock:  memLine.A / onFly,
		frameworkMem: max0(memLine.B),
		commAct:      regress.Mean(commActs),
		commGrad:     regress.Mean(commGrads),
		overhead:     max0(fwLine.B),
		optTime:      max0(regress.Mean(optTimes) - max0(fwLine.B)),
	}
	return f, nil
}

// assemble builds a cost.Estimator for the requested pipeline shape from the
// fitted lines, placing blocks[s] transformer blocks on stage s.
func (p *Profiler) assemble(f *fit, blocks []int, mbs, tp int) (*cost.Estimator, error) {
	stages := len(blocks)
	ftp := float64(tp)
	s, b, h := float64(p.Model.SeqLen), float64(mbs), float64(p.Model.Hidden)
	p2pBytes := s * b * h * cost.BytesPerActElem / ftp

	ovh := f.overhead
	e := &cost.Estimator{
		Stages:         stages,
		MicroBatch:     mbs,
		TP:             tp,
		FwTime:         make([]float64, stages),
		BwTime:         make([]float64, stages),
		RcTime:         make([]float64, stages),
		ActFull:        make([]float64, stages),
		ActStash:       make([]float64, stages),
		ActWork:        make([]float64, stages),
		WeightBytes:    make([]float64, stages),
		ActP2PBytes:    p2pBytes,
		GradP2PBytes:   p2pBytes,
		LinkLatency:    0,
		LinkBandwidth:  bandwidthFrom(p2pBytes, f.commAct),
		LaunchOverhead: ovh,
		FrameworkMem:   f.frameworkMem,
		OptTime:        f.optTime,
		BwSplitRatio:   0.5,
	}
	for st, nl := range blocks {
		fl := float64(nl)
		fw := max0(f.fw.Predict(fl) - ovh)
		bwBias := max0(f.bw.B)
		bwT := max0(f.bw.Predict(fl) - bwBias)
		if st == 0 {
			fw += f.firstExtra
			bwT += f.firstExtra * (bwT / max64(fw, 1e-12))
		}
		if st == stages-1 {
			fw += f.lastExtra
			bwT += f.lastExtra * 1.8
		}
		e.FwTime[st] = fw
		e.BwTime[st] = bwT
		e.RcTime[st] = fw
		e.ActFull[st] = f.actPerBlock * fl
		e.ActWork[st] = f.actPerBlock
		e.ActStash[st] = p2pBytes
		extra := 0.0
		if st == 0 || st == stages-1 {
			extra = p.Model.EmbeddingParams()
		}
		e.WeightBytes[st] = (p.Model.ParamsPerLayer()*fl + extra) / ftp * cost.BytesPerParamTraining
	}
	return e, nil
}

func bandwidthFrom(bytes, seconds float64) float64 {
	if seconds <= 0 {
		return 1e18 // effectively free links
	}
	return bytes / seconds
}

func max0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// allDevices gathers a key's samples from every device, in device order.
func allDevices(durs []map[cluster.SampleKey][]float64, k cluster.SampleKey) []float64 {
	var v []float64
	for _, dev := range durs {
		v = append(v, dev[k]...)
	}
	return v
}
