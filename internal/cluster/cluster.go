// Package cluster is the concurrent "hardware" this reproduction substitutes
// for the paper's A100 cluster: every device is a goroutine executing its
// instruction list, and point-to-point transfers are real Go channels, so
// the blocking semantics of the pipeline (including the deadlocks that §5.1
// pass 4's send buffering exists to avoid) are exercised by the scheduler of
// a real concurrent runtime rather than by a model.
//
// The goroutines, the links, the all-reduce barrier, teardown after the first
// error and the no-progress watchdog are the device runtime, Execute. The
// miniature trainer (internal/train) runs on it too, with tensors where the
// emulator sends arrival times, so both executors of an instruction list meet
// the same links and the same deadlock diagnosis.
//
// Time is virtual: each device advances a local clock by the ground-truth
// duration of each instruction (plus deterministic jitter and unmodeled
// framework overhead), and messages carry their arrival timestamps, so a
// receive advances the consumer's clock to max(local, arrival) — a
// conservative parallel discrete-event simulation in which the channel
// blocking itself enforces causality.
//
// A Machine can collect events: Execute then records one obs.Event per
// executed instruction, the emulator fills in what it measures (virtual
// start/end, p2p queue wait, modeled memory), and the report returns the
// stream in deterministic order. A machine that does not collect allocates no
// events, and collecting perturbs neither virtual time nor the jitter streams.
//
// Every instruction's price — a compute duration, a send's wire time — is one
// draw from its device's jitter stream in list order; no draw reads the
// virtual clock. Machine.Sample walks that draw without running anything; it
// is what profiling reads.
package cluster

import (
	"fmt"
	"time"

	"mario/internal/cost"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/sim"
	"mario/internal/tensor"
)

// Machine describes the emulated cluster.
type Machine struct {
	// Truth is the ground-truth per-instruction cost model (what the
	// hardware "really" does; the profiler only ever observes it through
	// noisy samples).
	Truth *cost.Estimator
	// Noise is the relative amplitude of deterministic per-instruction
	// jitter (e.g. 0.05 for ±5%).
	Noise float64
	// ExtraOverhead is per-instruction framework overhead in seconds that
	// the analytic estimator does not know about (the "un-modeled
	// behaviors" that make the paper's simulator overestimate throughput,
	// §6.6).
	ExtraOverhead float64
	// MemSlack multiplies dynamic memory to model allocator fragmentation
	// and transient buffers (≥ 1; 0 means 1).
	MemSlack float64
	// Hetero is the relative amplitude of static per-device speed variation
	// (chip binning, thermal placement). The profiler only ever measures
	// one device, so this is a systematic error source for the simulator —
	// the "un-modeled behaviors" of §6.6.
	Hetero float64
	// SpeedFactors, when non-nil, gives each device a known static relative
	// compute speed (1 = nominal, 0.8 = compute runs 25% slower). Unlike the
	// unmodeled Hetero jitter this is declared cluster heterogeneity — the
	// planner sees the same numbers through cost.Estimator.DeviceSpeed.
	// Compute instructions on device d are scaled by 1/SpeedFactors[d]; p2p
	// transfers are link-bound and stay unscaled. Entries beyond the device
	// count are ignored; missing, zero or negative entries mean nominal
	// speed.
	SpeedFactors []float64
	// Seed makes all jitter reproducible.
	Seed uint64
	// DP is the data-parallel degree for the cool-down all-reduce.
	DP int
	// Watchdog is the wall-clock no-progress limit of Execute; 0 means 5s.
	// Long runs do not trip it as long as they keep making progress.
	Watchdog time.Duration
	// CollectEvents makes the run fill Report.Events with one obs.Event per
	// executed instruction, device-major in execution order. The event
	// stream is deterministic for a fixed seed and does not perturb the run;
	// without it no events are allocated.
	CollectEvents bool
}

// SampleKey identifies a class of measured instruction durations: the kind
// and the stage, with stage −1 for an instruction of no micro-batch (the
// all-reduce and the optimizer step).
type SampleKey struct {
	Kind  pipeline.Kind
	Stage int
}

// Report is the outcome of an emulated run.
type Report struct {
	// Total is the virtual makespan of all iterations in seconds.
	Total float64
	// IterTime is Total divided by the iteration count.
	IterTime float64
	// PeakMem is the measured per-device peak memory in bytes.
	PeakMem []float64
	// SamplesPerSec is the measured training throughput.
	SamplesPerSec float64
	// WatchdogResets counts how many times the no-progress watchdog
	// re-armed during the run (0 for runs shorter than one watchdog
	// interval).
	WatchdogResets int
	// Events is the measured event stream, device-major in execution order;
	// nil unless Machine.CollectEvents was set.
	Events []obs.Event
}

// check performs the argument checks Run and Sample share.
func (m *Machine) check(s *pipeline.Schedule, iters int) error {
	if iters <= 0 {
		return fmt.Errorf("cluster: iteration count %d must be positive", iters)
	}
	if m.Truth == nil {
		return fmt.Errorf("cluster: machine has no ground-truth cost model")
	}
	if m.Truth.Stages != s.NumStages() {
		return fmt.Errorf("cluster: cost model built for %d stages, schedule has %d", m.Truth.Stages, s.NumStages())
	}
	return nil
}

// runners builds every device's execution state, with the two random streams
// per device that Run and Sample both draw from.
func (m *Machine) runners(s *pipeline.Schedule) []devRunner {
	dp := max(m.DP, 1)
	res := s.Resolved()
	runners := make([]devRunner, s.NumDevices())
	for d := range runners {
		runners[d] = devRunner{
			m: m, dp: dp,
			owned:    res.Stages(d),
			rng:      tensor.NewStream(m.Seed, uint64(d)),
			overhead: m.Truth.LaunchOverhead + m.ExtraOverhead,
			// Static per-device speed factor, fixed for the machine's
			// lifetime (drawn from a stream independent of the jitter).
			devFactor: 1 + m.Hetero*symmetric(tensor.NewStream(m.Seed^0xDEC0DE, uint64(d))),
			speedSlow: slowFactor(m.SpeedFactors, d),
		}
	}
	return runners
}

// peakMem is the measured per-device peak memory: the modeled peak with its
// dynamic part stretched by the allocator slack and a fixed ±1 % draw.
func (m *Machine) peakMem(s *pipeline.Schedule) []float64 {
	slack := m.MemSlack
	if slack <= 0 {
		slack = 1
	}
	peak := sim.PeakMemory(s, m.Truth)
	rng := tensor.NewStream(m.Seed, 0xA110C)
	for d, p := range peak {
		static := m.Truth.FrameworkMem
		dyn := p - static
		peak[d] = static + dyn*slack*(1+0.01*symmetric(rng))
	}
	return peak
}

// Run executes iters training iterations of the schedule on the emulated
// cluster and reports measured time and memory.
func (m *Machine) Run(s *pipeline.Schedule, iters int) (*Report, error) {
	if err := m.check(s, iters); err != nil {
		return nil, err
	}
	runners := m.runners(s)
	if m.CollectEvents {
		for d := range runners {
			runners[d].mem = sim.NewMemSim(s, m.Truth, d)
		}
	}
	events, resets, err := Execute(s, iters, m.Watchdog, m.CollectEvents, func(dv *Device[float64], in pipeline.Instr, ev *obs.Event) error {
		return runners[dv.ID].exec(dv, in, ev)
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		PeakMem:        m.peakMem(s),
		WatchdogResets: resets,
		Events:         events,
	}
	for d := range runners {
		rep.Total = max(rep.Total, runners[d].clock)
	}
	rep.IterTime = rep.Total / float64(iters)
	if rep.IterTime > 0 {
		rep.SamplesPerSec = float64(s.Micros*m.Truth.MicroBatch*max(m.DP, 1)) / rep.IterTime
	}
	return rep, nil
}

// Sample draws what a run of iters iterations would measure without running
// it: durations[d] holds device d's compute durations and send wire times,
// keyed by SampleKey, in the order device d's list would execute them, and
// peakMem is Run's measured peak memory. It walks each device's list iters
// times through the price draw Run uses, on the same two random streams per
// device, so every sample is bit-identical to the duration the same
// instruction takes in Run. That holds because no draw reads the virtual
// clock.
//
// Sample executes nothing: it starts no goroutine, opens no link and arms no
// watchdog, so it proves neither that the schedule is live nor that its sends
// and receives match. Run does both.
func (m *Machine) Sample(s *pipeline.Schedule, iters int) (durations []map[SampleKey][]float64, peakMem []float64, err error) {
	if err := m.check(s, iters); err != nil {
		return nil, nil, err
	}
	runners := m.runners(s)
	durations = make([]map[SampleKey][]float64, len(runners))
	for d := range runners {
		r, list := &runners[d], s.Lists[d]
		// Key each list position once, not once per iteration: class[i] is
		// the index in classes of list[i]'s sample class, which counts the
		// positions that draw so that one backing holds every class's
		// samples.
		var classes []sampleClass
		index := make(map[SampleKey]int)
		class := make([]int, len(list))
		for i, in := range list {
			k := SampleKey{Kind: in.Kind, Stage: in.Stage}
			if in.Micro == pipeline.NoMicro {
				k.Stage = -1
			}
			c, ok := index[k]
			if !ok {
				c = len(classes)
				index[k] = c
				classes = append(classes, sampleClass{key: k})
			}
			class[i] = c
			if draws(in.Kind) {
				classes[c].draws++
			}
		}
		total := 0
		for _, c := range classes {
			total += c.draws * iters
		}
		backing := make([]float64, total)
		drawn := make([][]float64, len(classes))
		for c, cl := range classes {
			n := cl.draws * iters
			drawn[c], backing = backing[:0:n], backing[n:]
		}
		for it := 0; it < iters; it++ {
			for i, in := range list {
				if dur, ok := r.draw(in); ok {
					drawn[class[i]] = append(drawn[class[i]], dur)
				}
			}
		}
		durations[d] = make(map[SampleKey][]float64, len(classes))
		for c, cl := range classes {
			if cl.draws > 0 {
				durations[d][cl.key] = drawn[c]
			}
		}
	}
	return durations, m.peakMem(s), nil
}

// sampleClass is one class of a device's samples and the number of its list
// positions that draw.
type sampleClass struct {
	key   SampleKey
	draws int
}

// devRunner is the execution state of one emulated device; only the device's
// goroutine touches it during the run.
type devRunner struct {
	m         *Machine
	dp        int
	devFactor float64
	// speedSlow is the declared compute slowdown 1/SpeedFactors[d]
	// (exactly 1 on a homogeneous machine).
	speedSlow float64
	// overhead is the per-instruction launch plus framework overhead.
	overhead float64
	// owned lists the stages whose weights the device holds (the all-reduce
	// volume).
	owned []int
	rng   *tensor.RNG
	clock float64
	// mem models the device's memory for its events; nil when the machine
	// does not collect events.
	mem *sim.MemSim
}

// draw prices one instruction from the device's jitter stream: the part of
// executing it that does not read the virtual clock. A compute kind (the
// all-reduce and the optimizer step included) costs overhead +
// base·jitter·speedSlow; a send's price is its wire time, CommTime(bytes)·
// jitter. Receives draw nothing and report false.
func (r *devRunner) draw(in pipeline.Instr) (float64, bool) {
	if !draws(in.Kind) {
		return 0, false
	}
	m, e := r.m, r.m.Truth
	jitter := r.devFactor * (1 + m.Noise*symmetric(r.rng))
	if in.Kind == pipeline.SendAct || in.Kind == pipeline.SendGrad {
		return e.CommTime(sim.P2PBytes(e, in.Kind)) * jitter, true
	}
	// The simulator's price list; only the all-reduce depends on the
	// data-parallel degree and the stages the device owns.
	base := sim.ComputeBase(e, in.Kind, in.Stage)
	if in.Kind == pipeline.AllReduce {
		base = e.AllReduceTime(r.dp, r.owned)
	}
	return r.overhead + base*jitter*r.speedSlow, true
}

// draws reports whether an instruction of kind k is priced by a draw from its
// device's jitter stream: a compute kind (the all-reduce and the optimizer
// step included) or a send. A receive draws nothing; its time is its
// message's arrival.
func draws(k pipeline.Kind) bool {
	return k.IsCompute() || k == pipeline.AllReduce || k == pipeline.SendAct || k == pipeline.SendGrad
}

// exec runs one instruction: the price draw, then the links. It advances the
// device's virtual clock and, when the machine collects events, fills the
// instruction's event: its virtual interval, queue wait, payload and modeled
// memory. A message carries its arrival time: a receive advances the clock
// to it.
func (r *devRunner) exec(dv *Device[float64], in pipeline.Instr, ev *obs.Event) error {
	if ev != nil {
		ev.Start = r.clock
		ev.Bytes = sim.P2PBytes(r.m.Truth, in.Kind)
	}
	dur, drawn := r.draw(in)
	switch in.Kind {
	case pipeline.SendAct, pipeline.SendGrad:
		if err := dv.Send(in, r.clock+r.overhead+dur); err != nil {
			return err
		}
		r.clock += r.overhead
	case pipeline.RecvAct, pipeline.RecvGrad:
		arrive, err := dv.Recv(in)
		if err != nil {
			return err
		}
		if arrive > r.clock {
			if ev != nil {
				ev.Wait = arrive - r.clock
			}
			r.clock = arrive
		}
		r.clock += r.overhead
	default:
		if !drawn {
			dur = r.overhead
		}
		r.clock += dur
	}
	if ev != nil {
		ev.End = r.clock
		ev.Mem = r.mem.Step(in)
	}
	return nil
}

// slowFactor converts a declared per-device speed into the compute slowdown
// multiplier: 1/speeds[d], or exactly 1 when the slice is short, missing, or
// the entry is non-positive.
func slowFactor(speeds []float64, d int) float64 {
	if d < 0 || d >= len(speeds) {
		return 1
	}
	if s := speeds[d]; s > 0 {
		return 1 / s
	}
	return 1
}

// symmetric draws a uniform value in [-1, 1).
func symmetric(r *tensor.RNG) float64 { return 2*r.Float64() - 1 }
