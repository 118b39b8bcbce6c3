package sim

import (
	"fmt"

	"mario/internal/cost"
	"mario/internal/obs"
	"mario/internal/pipeline"
)

// fifoMsg is one in-flight eager message on a link: which receive it is for
// and when it lands on the receiver.
type fifoMsg struct {
	dev, idx int32
	arrive   float64
}

// commLoc is one entry of the flat communication index: the registered
// instruction's device + 1 (zero = no instruction registered here) and its
// list index.
type commLoc struct {
	dev1, idx int32
}

// devState is the Simulator's per-device view of the schedule being
// simulated, rebuilt by every call into buffers kept for the next.
type devState struct {
	list  []pipeline.Instr
	metas []meta // this device's run of Simulator.metaBuf
	// first is the index of the device's first entry in metaBuf, and of its
	// first record in a timeline: both are device-major.
	first int

	arDur  float64 // AllReduce duration for this device's stage set
	slow   float64 // compute slowdown multiplier (1 = nominal speed)
	static float64 // framework + owned-weight bytes
	peak   float64 // peak memory of list
	busy   float64 // compute-busy total of list

	// propagation state, reset every run: the device's clock, the index of
	// its next instruction, and whether it sits in the ready queue.
	clock  float64
	pc     int
	queued bool
}

// linkState is one FIFO link's propagation state.
type linkState struct {
	// head and tail bound the link's in-flight messages, fifo[head:tail].
	// The setup walk counts the link's sends into tail; propagate turns the
	// counts into each link's run of fifo, which its sends then fill.
	head, tail int32
	// wait is the device blocked on the link's empty FIFO (-1 none); each
	// link has exactly one receiver, so one slot suffices.
	wait int32
}

// Simulator is a reusable simulation engine: scratch, not a cache. Every
// Simulate derives all of its metadata — durations, link ids, communication
// matches, per-device peak memory and busy time — from its arguments, then runs
// one full event-driven propagation, so its results are bit-identical to the
// package-level Simulate whatever it simulated before, and a caller may edit a
// list or an estimator in place between calls. What carries over is capacity:
// the metadata, the communication index, the memory walk and the propagation
// buffers (ready queue, FIFO links) are reused when they are big enough, and
// each is one backing carved per call, so steady-state re-simulation performs
// O(1) heap allocations per call and growing to a bigger schedule O(1) more,
// regardless of schedule size.
//
// The zero value is ready to use. A Simulator is not safe for concurrent use;
// give each worker goroutine its own.
type Simulator struct {
	// Sims counts Simulate calls on this engine. It is a plain field — a
	// Simulator is single-goroutine by contract — that the graph and tuner
	// layers read to fold into the telemetry registry.
	Sims int64

	// res is the simulated schedule's resolved placement: the resident
	// stages, the links and the transfer slots idx is laid out by.
	res     *pipeline.Resolved
	nStages int

	devs    []devState
	metaBuf []meta // every device's metas, device-major
	// idx locates communication instructions by transfer: entry 2·slot is
	// the send of Resolved.CommPair's slot, 2·slot+1 its receive. Entries
	// store device+1 so the zero value means "absent" and reset is a memclr.
	idx []commLoc

	mem MemSim // reusable memory-walk scratch

	// durTab holds per-(kind, stage) ComputeBase prices and actComm/gradComm
	// the two p2p transfer latencies, all derived from the call's estimator;
	// fillMeta fills metas from these instead of re-deriving per instruction.
	durTab            []float64
	actComm, gradComm float64

	// propagation scratch, reset (not reallocated) every run.
	links []linkState
	fifo  []fifoMsg
	// queue is a ring of one slot per device — a device is queued at most
	// once — holding qLen devices from qHead.
	queue       []int32
	qHead, qLen int
}

// Simulate runs the dynamic-programming timeline and memory simulation,
// reusing the engine's buffers.
func (m *Simulator) Simulate(s *pipeline.Schedule, e *cost.Estimator, opt Options) (*Result, error) {
	m.Sims++
	if e.Stages != s.NumStages() {
		return nil, fmt.Errorf("sim: estimator built for %d stages, schedule has %d", e.Stages, s.NumStages())
	}
	dp := opt.DP
	if dp <= 0 {
		dp = 1
	}
	m.bind(s, e, dp)
	D := len(m.devs)
	res := &Result{
		PeakMem:     make([]float64, D),
		ComputeBusy: make([]float64, D),
	}
	if !opt.NoTimeline {
		// One record per instruction, laid out like metaBuf.
		res.Timeline = make([]obs.Event, len(m.metaBuf))
	}
	for d := range m.devs {
		m.rebuildDevice(e, s.Micros, d, res.Timeline)
	}
	if err := m.resolveMatches(res.Timeline); err != nil {
		return nil, err
	}
	if err := m.propagate(e, res); err != nil {
		return nil, err
	}
	for d := range m.devs {
		res.PeakMem[d] = m.devs[d].peak
		res.ComputeBusy[d] = m.devs[d].busy
	}
	if opt.MemLimit > 0 {
		for d, p := range res.PeakMem {
			if p > opt.MemLimit {
				res.OOM = true
				res.OOMDevices = append(res.OOMDevices, d)
			}
		}
	}
	if res.Total > 0 {
		res.SamplesPerSec = float64(s.Micros*e.MicroBatch*dp) / res.Total
	}
	return res, nil
}

// bind derives everything the call's arguments fix above the instruction
// level: the placement view, the duration table, each device's list, metadata
// run, slowdown, all-reduce time and static memory, an empty communication
// index and zeroed per-link send counts.
func (m *Simulator) bind(s *pipeline.Schedule, e *cost.Estimator, dp int) {
	m.res, m.nStages = s.Resolved(), s.NumStages()
	m.devs = grow(m.devs, s.NumDevices())
	total := 0
	for d := range m.devs {
		total += len(s.Lists[d])
	}
	m.metaBuf = grow(m.metaBuf, total)
	off := 0
	for d := range m.devs {
		ds := &m.devs[d]
		list := s.Lists[d]
		ds.list, ds.metas, ds.first = list, m.metaBuf[off:off+len(list):off+len(list)], off
		off += len(list)
		stages := m.res.Stages(d)
		// Multiplying by the homogeneous slowdown 1 is bit-exact, so the
		// scale is applied unconditionally.
		ds.slow = e.SlowOf(d)
		ds.arDur = e.LaunchOverhead + e.AllReduceTime(dp, stages)*ds.slow
		ds.static = staticMem(e, stages)
	}
	m.durTab = grow(m.durTab, int(pipeline.BackwardWeight+1)*m.nStages)
	for k := range pipeline.BackwardWeight + 1 {
		for st := 0; st < m.nStages; st++ {
			m.durTab[int(k)*m.nStages+st] = ComputeBase(e, k, st)
		}
	}
	m.actComm, m.gradComm = e.CommTime(e.ActP2PBytes), e.CommTime(e.GradP2PBytes)
	m.idx = grow(m.idx, 2*m.res.Transfers())
	clear(m.idx)
	m.links = grow(m.links, m.res.NumLinks())
	clear(m.links)
}

// rebuildDevice walks device d's list once: it derives each instruction's
// metadata, registers the communication instructions, counts each link's
// sends, and steps the memory simulation, leaving the device's peak and busy
// total. With a timeline tl it also fills each instruction's record with what
// the walk knows: identity, payload and the memory after it. Matches are left
// unresolved: resolveMatches runs once every device has registered.
func (m *Simulator) rebuildDevice(e *cost.Estimator, micros, d int, tl []obs.Event) {
	ds := &m.devs[d]
	m.mem.rebind(e, micros, m.nStages, ds.static, ds.list)
	busy := 0.0
	for i, in := range ds.list {
		m.fillMeta(e, ds, d, i, in)
		if mt := &ds.metas[i]; mt.compute {
			busy += mt.dur
		}
		mem := m.mem.Step(in)
		if tl != nil {
			tl[ds.first+i] = obs.Event{Instr: in, Device: d, Peer: -1, Bytes: P2PBytes(e, in.Kind), Mem: mem}
		}
	}
	ds.busy, ds.peak = busy, m.mem.Peak()
}

// resolveMatches points every communication instruction at its matched peer,
// reading the index entry fillMeta left in its metadata, and names the peer in
// the instruction's record when there is a timeline tl. The scan runs
// device-major in list order, so the first unmatched instruction it reports
// is the same on every call.
func (m *Simulator) resolveMatches(tl []obs.Event) error {
	for d := range m.devs {
		ds := &m.devs[d]
		for i := range ds.metas {
			mt := &ds.metas[i]
			if mt.class == classCompute {
				continue
			}
			var loc commLoc
			if mt.matchIdx >= 0 {
				loc = m.idx[mt.matchIdx]
			}
			if loc.dev1 == 0 {
				return fmt.Errorf("sim: %s on device %d has no matching instruction", ds.list[i], d)
			}
			mt.matchDev, mt.matchIdx = loc.dev1-1, loc.idx
			if tl != nil {
				tl[ds.first+i].Peer = int(mt.matchDev)
			}
		}
	}
	return nil
}

// fillMeta derives device d's metadata for instruction i: duration or comm
// latency, class, and for a communication its link, its registration in the
// comm index and its partner's index entry, which it parks in matchIdx for
// resolveMatches. A send also counts toward its link's FIFO capacity.
func (m *Simulator) fillMeta(e *cost.Estimator, ds *devState, d, i int, in pipeline.Instr) {
	mt := &ds.metas[i]
	*mt = meta{matchDev: -1, matchIdx: -1}
	switch in.Kind {
	case pipeline.Forward, pipeline.CkptForward, pipeline.Backward,
		pipeline.BackwardInput, pipeline.BackwardWeight,
		pipeline.Recompute, pipeline.OptimizerStep:
		// lo + base·slow, the term the tuner's bounds price a compute with,
		// so a bound and the simulated duration are the same float value —
		// admissibility holds at the bit level. x·1 == x: a nominal-speed
		// rank pays lo + base.
		mt.dur = e.LaunchOverhead + m.durTab[int(in.Kind)*m.nStages+in.Stage]*ds.slow
		mt.compute = true
	case pipeline.AllReduce:
		mt.dur = ds.arDur
		mt.compute = true
	case pipeline.SendAct, pipeline.SendGrad, pipeline.RecvAct, pipeline.RecvGrad:
		mt.comm = m.actComm
		if in.Kind == pipeline.SendGrad || in.Kind == pipeline.RecvGrad {
			mt.comm = m.gradComm
		}
		side := 1
		mt.class = classRecv
		if in.Kind == pipeline.SendAct || in.Kind == pipeline.SendGrad {
			side = 0
			mt.class = classSend
		}
		// A transfer with no other end has no link and no slot either;
		// resolveMatches reports that before propagation can touch the
		// dummy link.
		link, slot := m.res.CommPair(in)
		if link >= 0 {
			mt.link = int32(link)
			if side == 0 {
				m.links[link].tail++
			}
		}
		if slot >= 0 {
			mt.matchIdx = int32(2*slot + 1 - side)
			// Slot's box holds only a stage's own chunk where the partition
			// follows the stage: an instruction of another part finds its
			// partner but is not found.
			if m.res.PartAt(in.Part, in.Stage) == in.Part {
				m.idx[2*slot+side] = commLoc{dev1: int32(d) + 1, idx: int32(i)}
			}
		}
	default:
		mt.dur = e.LaunchOverhead
	}
}

// ComputeBase returns the unscaled estimator latency of a compute kind on the
// given stage — the value the engine's duration table stores; launch
// overhead and per-device slowdown are applied on top. It is the one price list: the
// tuner's admissible bounds price whole instructions with it, so their
// per-device lo + base·slow terms are bit-identical to the simulated
// durations, and the cluster emulator takes its compute base latencies from
// it. Non-compute kinds, the all-reduce included, return 0.
func ComputeBase(e *cost.Estimator, k pipeline.Kind, stage int) float64 {
	switch k {
	case pipeline.Forward, pipeline.CkptForward:
		return e.FwTime[stage]
	case pipeline.Backward:
		return e.BwTime[stage]
	case pipeline.BackwardInput:
		return e.BwTime[stage] * e.BwSplitRatio
	case pipeline.BackwardWeight:
		return e.BwTime[stage] * (1 - e.BwSplitRatio)
	case pipeline.Recompute:
		return e.RcTime[stage]
	case pipeline.OptimizerStep:
		return e.OptTime
	}
	return 0
}

// P2PBytes returns the payload of a point-to-point kind: a gradient on the
// grad channel, an activation on the act channel. Other kinds return 0.
func P2PBytes(e *cost.Estimator, k pipeline.Kind) float64 {
	switch k {
	case pipeline.SendGrad, pipeline.RecvGrad:
		return e.GradP2PBytes
	case pipeline.SendAct, pipeline.RecvAct:
		return e.ActP2PBytes
	}
	return 0
}

// propagate runs the event-driven earliest-start-time propagation: each
// device advances until it blocks on a dependency, registers itself as a
// waiter, and is re-enqueued exactly when the dependency is satisfied —
// replacing the O(D × passes) round-robin retry sweep. The computed times are
// a pure dataflow fixpoint, so they are independent of wake order and
// bit-identical to the round-robin result.
func (m *Simulator) propagate(e *cost.Estimator, res *Result) error {
	D := len(m.devs)
	m.queue = grow(m.queue, D)
	for d := range m.devs {
		ds := &m.devs[d]
		ds.clock, ds.pc, ds.queued = 0, 0, true
		m.queue[d] = int32(d)
	}
	m.qHead, m.qLen = 0, D
	// Each link's run of fifo holds exactly the sends the walk counted.
	off := int32(0)
	for l := range m.links {
		ls := &m.links[l]
		n := ls.tail
		ls.head, ls.tail, ls.wait = off, off, -1
		off += n
	}
	m.fifo = grow(m.fifo, int(off))

	for m.qLen > 0 {
		d := int(m.queue[m.qHead])
		m.qHead, m.qLen = (m.qHead+1)%D, m.qLen-1
		m.devs[d].queued = false
		if err := m.runDevice(d, e, res); err != nil {
			return err
		}
	}

	for d := range m.devs {
		ds := &m.devs[d]
		if ds.pc < len(ds.list) {
			return fmt.Errorf("%w: device %d blocked at %s", ErrDeadlock, d, ds.list[ds.pc])
		}
		if ds.clock > res.Total {
			res.Total = ds.clock
		}
	}
	return nil
}

// runDevice advances device d until it finishes or blocks, timing each
// instruction's record when the result has a timeline.
func (m *Simulator) runDevice(d int, e *cost.Estimator, res *Result) error {
	ds := &m.devs[d]
	list := ds.list
	metas := ds.metas
	i := ds.pc
	clock := ds.clock
	for i < len(list) {
		mt := &metas[i]
		start := clock
		switch mt.class {
		case classCompute:
			clock = start + mt.dur
		case classSend:
			clock = start + e.LaunchOverhead
			ls := &m.links[mt.link]
			m.fifo[ls.tail] = fifoMsg{dev: mt.matchDev, idx: mt.matchIdx, arrive: clock + mt.comm}
			ls.tail++
			if w := ls.wait; w >= 0 {
				ls.wait = -1
				m.enqueue(w)
			}
		case classRecv:
			ls := &m.links[mt.link]
			if ls.head >= ls.tail {
				ls.wait = int32(d)
				goto blocked
			}
			msg := m.fifo[ls.head]
			if int(msg.dev) != d || int(msg.idx) != i {
				ds.pc, ds.clock = i, clock
				return fmt.Errorf("%w: device %d expects %s but link head is for dev%d[%d]",
					ErrCommMismatch, d, list[i], msg.dev, msg.idx)
			}
			ls.head++
			clock = start + e.LaunchOverhead
			mt.late = msg.arrive > clock
			if mt.late {
				clock = msg.arrive
			}
		}
		if res.Timeline != nil {
			r := &res.Timeline[ds.first+i]
			r.Start, r.End = start, clock
			if mt.late {
				// A late receive idles from the end of its launch overhead
				// until its message lands.
				r.Wait = clock - (start + e.LaunchOverhead)
			}
		}
		i++
	}
blocked:
	ds.pc, ds.clock = i, clock
	return nil
}

// Segment is one maximal list-order run of a critical chain: instructions
// Lo..Hi of device Dev, each starting the moment its predecessor ends.
type Segment struct{ Dev, Lo, Hi int32 }

// CriticalChain appends to dst one longest dependency chain of the engine's
// last run, walked back from the last instruction of the makespan device to
// t = 0. A segment is entered at Lo by a communication edge — Lo is a receive
// that waited for its message, and the next segment ends at the matched send —
// or at index 0, and left at Hi by that send or at the list's end. Within a
// segment every instruction costs its duration (a send or a receive the launch
// overhead), an edge between segments the transfer latency, and the sum is the
// run's Total. Ties go to list order. Only a successful run leaves a chain
// behind: after an error the walk is meaningless.
func (m *Simulator) CriticalChain(dst []Segment) []Segment {
	if len(m.devs) == 0 {
		return dst
	}
	d := 0
	for o := range m.devs {
		if m.devs[o].clock > m.devs[d].clock {
			d = o
		}
	}
	for i := len(m.devs[d].list) - 1; i >= 0; {
		metas := m.devs[d].metas
		hi := i
		for i > 0 && !metas[i].late {
			i--
		}
		dst = append(dst, Segment{Dev: int32(d), Lo: int32(i), Hi: int32(hi)})
		if !metas[i].late {
			break
		}
		d, i = int(metas[i].matchDev), int(metas[i].matchIdx)
	}
	return dst
}

func (m *Simulator) enqueue(d int32) {
	if ds := &m.devs[d]; !ds.queued {
		ds.queued = true
		m.queue[(m.qHead+m.qLen)%len(m.queue)] = d
		m.qLen++
	}
}

// grow returns s resized to n, reallocating only when its capacity is short.
// Nothing in a buffer outlives the call that fills it, so a reallocation
// copies nothing.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
