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
package cluster

import (
	"fmt"
	"time"

	"mario/internal/cost"
	"mario/internal/fault"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/sim"
	"mario/internal/tensor"
)

// Machine describes the emulated cluster.
type Machine struct {
	// Truth is the ground-truth per-instruction cost model (what the
	// hardware "really" does; the profiler only ever observes it through
	// noisy runs).
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
	// speed. Composes multiplicatively (and deterministically) with injected
	// fault slowdowns on the same device.
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
	// Faults, when non-nil, degrades the run under the fault plan: compute
	// slowdowns, link latency/bandwidth/drop faults with bounded retry, and
	// whole-device stall windows — all in virtual time, so a faulted run is
	// exactly as reproducible as a healthy one. A nil (or empty) plan costs
	// nothing.
	Faults *fault.Plan
}

// SampleKey identifies a class of measured instruction durations.
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
	// DeviceDurations[d] holds device d's measured per-instruction durations,
	// keyed by (kind, stage), across all iterations — the raw material of
	// lightweight profiling (the paper profiles the (D-1)-th device).
	DeviceDurations []map[SampleKey][]float64
	// WatchdogResets counts how many times the no-progress watchdog
	// re-armed during the run (0 for runs shorter than one watchdog
	// interval).
	WatchdogResets int
	// FaultDrops, FaultStall and FaultSlowed summarise the injected faults:
	// total dropped p2p attempts, total injected stall time in virtual
	// seconds, and the count of compute instructions that ran slowed. All
	// zero on a healthy run.
	FaultDrops  int
	FaultStall  float64
	FaultSlowed int
	// Events is the measured event stream, device-major in execution order;
	// nil unless Machine.CollectEvents was set.
	Events []obs.Event
}

// Run executes iters training iterations of the schedule on the emulated
// cluster and reports measured time, memory and per-instruction samples.
func (m *Machine) Run(s *pipeline.Schedule, iters int) (*Report, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("cluster: iteration count %d must be positive", iters)
	}
	if m.Truth == nil {
		return nil, fmt.Errorf("cluster: machine has no ground-truth cost model")
	}
	if m.Truth.Stages != s.NumStages() {
		return nil, fmt.Errorf("cluster: cost model built for %d stages, schedule has %d", m.Truth.Stages, s.NumStages())
	}
	dp := m.DP
	if dp <= 0 {
		dp = 1
	}
	D := s.NumDevices()
	var inj *fault.Injector
	if !m.Faults.Empty() {
		var err error
		if inj, err = m.Faults.Compile(D); err != nil {
			return nil, err
		}
	}
	res := s.Resolved()
	runners := make([]devRunner, D)
	for d := range runners {
		r := &runners[d]
		*r = devRunner{
			m: m, s: s, d: d, dp: dp,
			owned:   res.Stages(d),
			rng:     tensor.NewStream(m.Seed, uint64(d)),
			samples: make(map[SampleKey][]float64),
			// Static per-device speed factor, fixed for the machine's
			// lifetime (drawn from a stream independent of the jitter).
			devFactor: 1 + m.Hetero*symmetric(tensor.NewStream(m.Seed^0xDEC0DE, uint64(d))),
			speedSlow: slowFactor(m.SpeedFactors, d),
		}
		if inj != nil {
			r.fj = inj.Device(d)
		}
		if m.CollectEvents {
			r.mem = sim.NewMemSim(s, m.Truth, d)
		}
	}
	events, resets, err := Execute(s, iters, m.Watchdog, m.CollectEvents, func(dv *Device[float64], in pipeline.Instr, ev *obs.Event) error {
		return runners[dv.ID].exec(dv, in, ev)
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		PeakMem:         make([]float64, D),
		DeviceDurations: make([]map[SampleKey][]float64, D),
		WatchdogResets:  resets,
		Events:          events,
	}
	if inj != nil {
		for d := 0; d < D; d++ {
			fj := inj.Device(d)
			rep.FaultDrops += fj.Drops
			rep.FaultStall += fj.StallVirtual
			rep.FaultSlowed += fj.Slowed
		}
	}
	for d := range runners {
		r := &runners[d]
		if r.clock > rep.Total {
			rep.Total = r.clock
		}
		rep.DeviceDurations[d] = r.samples
	}
	rep.IterTime = rep.Total / float64(iters)

	slack := m.MemSlack
	if slack <= 0 {
		slack = 1
	}
	base := sim.PeakMemory(s, m.Truth)
	rng := tensor.NewStream(m.Seed, 0xA110C)
	for d, p := range base {
		static := m.Truth.FrameworkMem
		dyn := p - static
		rep.PeakMem[d] = static + dyn*slack*(1+0.01*symmetric(rng))
	}
	if rep.IterTime > 0 {
		rep.SamplesPerSec = float64(s.Micros*m.Truth.MicroBatch*dp) / rep.IterTime
	}
	return rep, nil
}

// devRunner is the execution state of one emulated device; only the device's
// goroutine touches it during the run.
type devRunner struct {
	m         *Machine
	s         *pipeline.Schedule
	d         int
	dp        int
	devFactor float64
	// speedSlow is the declared compute slowdown 1/SpeedFactors[d]
	// (exactly 1 on a homogeneous machine).
	speedSlow float64
	// owned lists the stages whose weights the device holds (the all-reduce
	// volume).
	owned   []int
	rng     *tensor.RNG
	samples map[SampleKey][]float64
	clock   float64
	// fj is the device's fault-injector view; nil on a healthy run.
	fj *fault.DeviceInjector
	// mem models the device's memory for its events; nil when the machine
	// does not collect events.
	mem *sim.MemSim
}

// exec runs one instruction, advancing the device's virtual clock and, when
// the machine collects events, filling the instruction's event: its virtual
// interval, modeled memory and fault annotations.
func (r *devRunner) exec(dv *Device[float64], in pipeline.Instr, ev *obs.Event) error {
	var stall float64
	if r.fj != nil {
		// Injected whole-device stalls take effect at instruction
		// boundaries: the virtual clock jumps.
		stall = r.fj.TakeStall(r.clock)
		r.clock += stall
	}
	if ev != nil {
		ev.Start, ev.FaultStall = r.clock, stall
	}
	if err := r.execClock(dv, in, ev); err != nil {
		return err
	}
	if ev != nil {
		ev.End = r.clock
		ev.Mem = r.mem.Step(in)
	}
	return nil
}

// execClock advances the virtual clock across one instruction. A message
// carries its arrival time: a receive advances the clock to it.
func (r *devRunner) execClock(dv *Device[float64], in pipeline.Instr, ev *obs.Event) error {
	m, s, d := r.m, r.s, r.d
	e := m.Truth
	jitter := func() float64 { return r.devFactor * (1 + m.Noise*symmetric(r.rng)) }
	overhead := e.LaunchOverhead + m.ExtraOverhead

	switch in.Kind {
	case pipeline.Forward, pipeline.CkptForward, pipeline.Backward, pipeline.Recompute,
		pipeline.AllReduce, pipeline.OptimizerStep,
		pipeline.BackwardInput, pipeline.BackwardWeight:
		// The simulator's price list; only the all-reduce depends on the
		// data-parallel degree and the stages the device owns.
		base := sim.ComputeBase(e, in.Kind, in.Stage)
		if in.Kind == pipeline.AllReduce {
			base = e.AllReduceTime(r.dp, r.owned)
		}
		dur := overhead + base*jitter()*r.speedSlow
		if r.fj != nil {
			// A slowdown degrades the hardware itself: the slowed duration is
			// what profiling observes, exactly as a thermally-throttled chip
			// would be measured.
			if f := r.fj.ComputeFactor(r.clock); f != 1 {
				dur *= f
				if ev != nil {
					ev.FaultSlow = f
				}
			}
		}
		key := SampleKey{Kind: in.Kind, Stage: in.Stage}
		if in.Micro == pipeline.NoMicro {
			key.Stage = -1
		}
		r.samples[key] = append(r.samples[key], dur)
		r.clock += dur
		return nil

	case pipeline.SendAct, pipeline.SendGrad:
		bytes := e.ActP2PBytes
		if in.Kind == pipeline.SendGrad {
			bytes = e.GradP2PBytes
		}
		peer := s.PeerDevice(d, in)
		transfer := e.CommTime(bytes) * jitter()
		if r.fj != nil {
			tr, err := r.fj.Transfer(peer, channelName(in.Kind), transfer, r.clock)
			if err != nil {
				return fmt.Errorf("%w (link %d->%d[%s], %s)", err, d, peer, channelName(in.Kind), in)
			}
			transfer = tr.Delay
			if ev != nil {
				ev.FaultDrops = tr.Drops
			}
		}
		if ev != nil {
			ev.Bytes = bytes
		}
		if err := dv.Send(in, r.clock+overhead+transfer); err != nil {
			return err
		}
		// The measured wire time is visible to profiling (NCCL-style
		// transfer timing).
		key := SampleKey{Kind: in.Kind, Stage: in.Stage}
		r.samples[key] = append(r.samples[key], transfer)
		r.clock += overhead
		return nil

	case pipeline.RecvAct, pipeline.RecvGrad:
		if ev != nil {
			if in.Kind == pipeline.RecvGrad {
				ev.Bytes = e.GradP2PBytes
			} else {
				ev.Bytes = e.ActP2PBytes
			}
		}
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
		r.clock += overhead
		return nil
	}
	r.clock += overhead
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
