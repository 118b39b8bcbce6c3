// Package cluster is the concurrent "hardware" this reproduction substitutes
// for the paper's A100 cluster: every device is a goroutine executing its
// instruction list, and point-to-point transfers are real Go channels, so
// the blocking semantics of the pipeline (including the deadlocks that §5.1
// pass 4's send buffering exists to avoid) are exercised by the scheduler of
// a real concurrent runtime rather than by a model.
//
// Time is virtual: each device advances a local clock by the ground-truth
// duration of each instruction (plus deterministic jitter and unmodeled
// framework overhead), and messages carry their arrival timestamps, so a
// receive advances the consumer's clock to max(local, arrival) — a
// conservative parallel discrete-event simulation in which the channel
// blocking itself enforces causality.
//
// A Machine can collect events: each device then records one obs.Event per
// executed instruction (virtual start/end, p2p queue wait, modeled memory) in
// a device-local slice, and the report returns the stream in deterministic
// order. A machine that does not collect allocates no events, and collecting
// perturbs neither virtual time nor the jitter streams.
package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mario/internal/cost"
	"mario/internal/fault"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/sim"
)

// ErrDeadlock is returned when the run makes no progress within the
// watchdog interval: some device blocked on a channel forever. The error
// text names, per stuck device, the pending instruction and the link it is
// blocked on.
var ErrDeadlock = errors.New("cluster: deadlock (device blocked on p2p)")

// ErrMismatch is returned when a receive pops a message destined for a
// different instruction, i.e. send/recv orders diverge on a link.
var ErrMismatch = errors.New("cluster: send/recv order mismatch")

// errAborted marks secondary failures of devices torn down after another
// device hit the primary error; Run reports the primary error instead.
var errAborted = errors.New("cluster: aborted")

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
	// Watchdog is the wall-clock no-progress limit; 0 means 5s. The
	// watchdog re-arms whenever any device executes an instruction, so
	// long runs do not trip it as long as they keep making progress.
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
	// Durations holds the measured per-instruction durations, keyed by
	// (kind, stage), across all iterations — the raw material of
	// lightweight profiling.
	Durations map[SampleKey][]float64
	// DeviceDurations[d] holds the same samples restricted to device d (the
	// paper profiles the (D-1)-th device).
	DeviceDurations []map[SampleKey][]float64
	// WatchdogResets counts how many times the no-progress watchdog
	// observed progress and re-armed during the run (0 for runs shorter
	// than one watchdog interval).
	WatchdogResets int
	// StallResets counts watchdog firings that found no progress but at
	// least one device inside an injected wall-clock stall, so the watchdog
	// re-armed instead of declaring a deadlock.
	StallResets int
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

type message struct {
	key    pipeline.Key
	arrive float64
}

type linkKey struct {
	from, to, channel int
}

// devStatus publishes what a device is currently blocked on, so the
// watchdog can name the stuck instruction and link when it fires. Devices
// write it only around potentially-blocking channel operations.
type devStatus struct {
	mu      sync.Mutex
	blocked bool
	send    bool
	in      pipeline.Instr
	iter    int
	peer    int
}

func (st *devStatus) set(in pipeline.Instr, iter, peer int, send bool) {
	st.mu.Lock()
	st.blocked, st.send, st.in, st.iter, st.peer = true, send, in, iter, peer
	st.mu.Unlock()
}

func (st *devStatus) clear() {
	st.mu.Lock()
	st.blocked = false
	st.mu.Unlock()
}

// describe renders the blocked state, or "" when the device is not blocked.
func (st *devStatus) describe(d int) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.blocked {
		return ""
	}
	dir, from, to := "recv", st.peer, d
	if st.send {
		dir, from, to = "send", d, st.peer
	}
	return fmt.Sprintf("dev%d blocked on %s %s (stage %d, micro %d, iter %d) link %d->%d[%s]",
		d, dir, st.in, st.in.Stage, st.in.Micro, st.iter, from, to, channelName(st.in.Kind))
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
	watchdog := m.Watchdog
	if watchdog <= 0 {
		watchdog = 5 * time.Second
	}
	// Links are eager, as the simulator's are: each channel holds four times
	// the messages one iteration can put on it, so a send does not wait for
	// its receive.
	bufCap := 4 * s.Micros * s.NumStages()

	D := s.NumDevices()
	var inj *fault.Injector
	if !m.Faults.Empty() {
		var err error
		if inj, err = m.Faults.Compile(D); err != nil {
			return nil, err
		}
	}
	links := make(map[linkKey]chan message)
	for d, list := range s.Lists {
		for _, in := range list {
			if in.Kind == pipeline.SendAct || in.Kind == pipeline.SendGrad {
				lk := linkKey{d, s.PeerDevice(d, in), channelOf(in.Kind)}
				if links[lk] == nil {
					links[lk] = make(chan message, bufCap)
				}
			}
		}
	}

	type devResult struct {
		clock   float64
		samples map[SampleKey][]float64
		events  []obs.Event
		err     error
	}
	results := make([]devResult, D)
	statuses := make([]devStatus, D)
	var progress atomic.Uint64
	done := make(chan struct{})
	abort := make(chan struct{})
	var abortOnce sync.Once
	var wg sync.WaitGroup

	for d := 0; d < D; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			res := &results[d]
			res.samples = make(map[SampleKey][]float64)
			r := &devRunner{
				m: m, s: s, d: d, dp: dp,
				rng:      newRNG(m.Seed, uint64(d)),
				samples:  res.samples,
				links:    links,
				abort:    abort,
				status:   &statuses[d],
				progress: &progress,
			}
			if inj != nil {
				r.fj = inj.Device(d)
			}
			// Static per-device speed factor, fixed for the machine's
			// lifetime (drawn from a stream independent of the jitter).
			devRNG := newRNG(m.Seed^0xDEC0DE, uint64(d))
			r.devFactor = 1 + m.Hetero*devRNG.symmetric()
			r.speedSlow = slowFactor(m.SpeedFactors, d)
			if m.CollectEvents {
				r.events = make([]obs.Event, 0, len(s.Lists[d])*iters)
				r.mem = sim.NewMemSim(s, m.Truth, d)
			}
			for it := 0; it < iters; it++ {
				r.iter = it
				for _, in := range s.Lists[d] {
					if err := r.exec(in); err != nil {
						res.err = err
						abortOnce.Do(func() { close(abort) })
						return
					}
					progress.Add(1)
				}
			}
			res.clock = r.clock
			res.events = r.events
		}(d)
	}
	go func() { wg.Wait(); close(done) }()

	resets, stallResets := 0, 0
	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	last := uint64(0)
watchLoop:
	for {
		select {
		case <-done:
			break watchLoop
		case <-timer.C:
			if cur := progress.Load(); cur != last {
				// Progress since the last check: re-arm.
				last = cur
				resets++
				timer.Reset(watchdog)
				continue
			}
			if inj != nil && inj.Stalled() > 0 {
				// No progress, but a device is inside an injected wall-clock
				// stall — that is the fault plan at work, not a deadlock.
				stallResets++
				timer.Reset(watchdog)
				continue
			}
			abortOnce.Do(func() { close(abort) })
			<-done
			var stuck []string
			for d := range statuses {
				if desc := statuses[d].describe(d); desc != "" {
					stuck = append(stuck, desc)
				}
			}
			detail := ""
			if len(stuck) > 0 {
				detail = ": " + strings.Join(stuck, "; ")
			}
			return nil, fmt.Errorf("%w after %v of no progress%s", ErrDeadlock, watchdog, detail)
		}
	}

	rep := &Report{
		PeakMem:         make([]float64, D),
		Durations:       make(map[SampleKey][]float64),
		DeviceDurations: make([]map[SampleKey][]float64, D),
		WatchdogResets:  resets,
		StallResets:     stallResets,
	}
	if inj != nil {
		for d := 0; d < D; d++ {
			fj := inj.Device(d)
			rep.FaultDrops += fj.Drops
			rep.FaultStall += fj.StallVirtual
			rep.FaultSlowed += fj.Slowed
		}
	}
	var firstErr error
	for d := 0; d < D; d++ {
		if err := results[d].err; err != nil {
			if firstErr == nil || (errors.Is(firstErr, errAborted) && !errors.Is(err, errAborted)) {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for d := 0; d < D; d++ {
		if results[d].clock > rep.Total {
			rep.Total = results[d].clock
		}
		rep.DeviceDurations[d] = results[d].samples
		for k, v := range results[d].samples {
			rep.Durations[k] = append(rep.Durations[k], v...)
		}
	}
	rep.IterTime = rep.Total / float64(iters)

	slack := m.MemSlack
	if slack <= 0 {
		slack = 1
	}
	base := sim.PeakMemory(s, m.Truth)
	rng := newRNG(m.Seed, 0xA110C)
	for d, p := range base {
		static := m.Truth.FrameworkMem
		dyn := p - static
		rep.PeakMem[d] = static + dyn*slack*(1+0.01*rng.symmetric())
	}
	if rep.IterTime > 0 {
		rep.SamplesPerSec = float64(s.Micros*m.Truth.MicroBatch*dp) / rep.IterTime
	}
	for d := 0; d < D; d++ {
		rep.Events = append(rep.Events, results[d].events...)
	}
	return rep, nil
}

// devRunner is the per-goroutine execution state of one emulated device.
type devRunner struct {
	m         *Machine
	s         *pipeline.Schedule
	d         int
	dp        int
	devFactor float64
	// speedSlow is the declared compute slowdown 1/SpeedFactors[d]
	// (exactly 1 on a homogeneous machine).
	speedSlow float64
	rng       *rng
	samples   map[SampleKey][]float64
	links     map[linkKey]chan message
	abort     chan struct{}
	status    *devStatus
	progress  *atomic.Uint64
	iter      int
	clock     float64
	// fj is the device's fault-injector view; nil on a healthy run.
	fj *fault.DeviceInjector
	// events and mem are nil when the machine does not collect events; the
	// recording path then allocates nothing.
	events []obs.Event
	mem    *sim.MemSim
}

// exec runs one instruction, advancing the device's virtual clock and, when
// the machine collects events, recording the instruction's event.
func (r *devRunner) exec(in pipeline.Instr) error {
	var stall float64
	if r.fj != nil {
		// Injected whole-device stalls take effect at instruction
		// boundaries: the virtual clock jumps, and an optional wall-clock
		// hold lets the watchdog's stall classification be exercised.
		var wall time.Duration
		stall, wall = r.fj.TakeStall(r.clock)
		r.clock += stall
		if wall > 0 {
			r.fj.EnterStall()
			select {
			case <-time.After(wall):
			case <-r.abort:
			}
			r.fj.ExitStall()
		}
	}
	var ev *obs.Event
	if r.events != nil {
		r.events = append(r.events, obs.Event{
			Device: r.d, Iter: r.iter, Kind: in.Kind,
			Micro: in.Micro, Part: in.Part, Stage: in.Stage,
			Peer: -1, Start: r.clock, Buffered: in.Buffered,
			FaultStall: stall,
		})
		ev = &r.events[len(r.events)-1]
	}
	if err := r.execClock(in, ev); err != nil {
		return err
	}
	if ev != nil {
		ev.End = r.clock
		ev.Mem = r.mem.Step(in)
	}
	return nil
}

// execClock advances the virtual clock across one instruction.
func (r *devRunner) execClock(in pipeline.Instr, ev *obs.Event) error {
	m, s, d := r.m, r.s, r.d
	e := m.Truth
	jitter := func() float64 { return r.devFactor * (1 + m.Noise*r.rng.symmetric()) }
	overhead := e.LaunchOverhead + m.ExtraOverhead

	switch in.Kind {
	case pipeline.Forward, pipeline.CkptForward, pipeline.Backward, pipeline.Recompute,
		pipeline.AllReduce, pipeline.OptimizerStep,
		pipeline.BackwardInput, pipeline.BackwardWeight:
		var base float64
		switch in.Kind {
		case pipeline.Forward, pipeline.CkptForward:
			base = e.FwTime[in.Stage]
		case pipeline.Backward:
			base = e.BwTime[in.Stage]
		case pipeline.BackwardInput:
			base = e.BwTime[in.Stage] * e.BwSplitRatio
		case pipeline.BackwardWeight:
			base = e.BwTime[in.Stage] * (1 - e.BwSplitRatio)
		case pipeline.Recompute:
			base = e.RcTime[in.Stage]
		case pipeline.AllReduce:
			base = e.AllReduceTime(r.dp, ownedStages(s, d))
		case pipeline.OptimizerStep:
			base = e.OptTime
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
		lk := linkKey{d, peer, channelOf(in.Kind)}
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
		msg := message{key: s.MatchKey(in), arrive: r.clock + overhead + transfer}
		if ev != nil {
			ev.Peer, ev.Bytes = peer, bytes
		}
		r.status.set(in, r.iter, peer, true)
		select {
		case r.links[lk] <- msg:
			r.status.clear()
			// The measured wire time is visible to profiling (NCCL-style
			// transfer timing).
			r.samples[SampleKey{Kind: in.Kind, Stage: in.Stage}] = append(
				r.samples[SampleKey{Kind: in.Kind, Stage: in.Stage}], transfer)
			r.clock += overhead
			return nil
		case <-r.abort:
			return fmt.Errorf("%w while sending %s from device %d", errAborted, in, d)
		}

	case pipeline.RecvAct, pipeline.RecvGrad:
		peer := s.PeerDevice(d, in)
		lk := linkKey{peer, d, channelOf(in.Kind)}
		ch := r.links[lk]
		if ch == nil {
			return fmt.Errorf("cluster: device %d has no link for %s", d, in)
		}
		if ev != nil {
			ev.Peer = peer
			if in.Kind == pipeline.RecvGrad {
				ev.Bytes = e.GradP2PBytes
			} else {
				ev.Bytes = e.ActP2PBytes
			}
		}
		r.status.set(in, r.iter, peer, false)
		select {
		case msg := <-ch:
			r.status.clear()
			if msg.key != in.Key() {
				return fmt.Errorf("%w: device %d expected %s, link delivered %v", ErrMismatch, d, in, msg.key)
			}
			if msg.arrive > r.clock {
				if ev != nil {
					ev.Wait = msg.arrive - r.clock
				}
				r.clock = msg.arrive
			}
			r.clock += overhead
			return nil
		case <-r.abort:
			return fmt.Errorf("%w while receiving %s on device %d", errAborted, in, d)
		}
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

// ownedStages lists the stages whose weights device d holds.
func ownedStages(s *pipeline.Schedule, d int) []int {
	var out []int
	pl := s.Placement
	for st := 0; st < pl.NumStages(); st++ {
		for p := 0; p < pl.NumParts(); p++ {
			if pl.Device(p, st) == d {
				out = append(out, st)
				break
			}
		}
	}
	return out
}

func channelOf(k pipeline.Kind) int {
	if k == pipeline.SendGrad || k == pipeline.RecvGrad {
		return 1
	}
	return 0
}

// channelName tags a comm kind's link for human-readable diagnostics.
func channelName(k pipeline.Kind) string {
	if k == pipeline.SendGrad || k == pipeline.RecvGrad {
		return "grad"
	}
	return "act"
}

// rng is a splitmix64-based deterministic generator; each device derives an
// independent stream from (seed, device).
type rng struct{ state uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{state: seed*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// symmetric returns a uniform value in [-1, 1).
func (r *rng) symmetric() float64 { return 2*r.float64() - 1 }
