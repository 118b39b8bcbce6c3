package sim

import (
	"fmt"
	"math"

	"mario/internal/cost"
	"mario/internal/pipeline"
)

// fifoMsg is one in-flight eager message on a link: which receive it is for
// and when it lands on the receiver.
type fifoMsg struct {
	dev, idx int32
	arrive   float64
}

// commLoc is one slot of the flat communication index: the registered
// instruction's device + 1 (zero = no instruction at this coordinate) and its
// list index.
type commLoc struct {
	dev1, idx int32
}

// devState is the Simulator's cached per-device view of a schedule.
type devState struct {
	// list is the instruction list the cached metadata was built from. It
	// doubles as the cache key (identity of the backing array + length) and,
	// because the engine retains the reference, guarantees the allocator
	// cannot hand the same address to a different list while the cache entry
	// is alive.
	list  []pipeline.Instr
	metas []meta
	// comm indexes the communication instructions of list, in list order.
	comm []int32
	// posted[i] is the time the device reached instruction i (NaN before);
	// done[i] the completion time of rendezvous receive i. Only maintained in
	// rendezvous mode — eager propagation never reads them.
	posted, done []float64
	// peers accumulates the distinct devices this device's communication
	// matches resolve to — a conservative superset (entries are added on
	// resolution, never removed), used to skip match re-resolution scans for
	// devices with no match into a changed list.
	peers []int32
	// stages lists the distinct stages whose weights the device holds.
	stages []int
	arDur  float64 // AllReduce duration for this device's stage set
	slow   float64 // compute slowdown multiplier (1 = nominal speed)
	static float64 // framework + owned-weight bytes
	peak   float64 // cached peak memory of list
	busy   float64 // cached compute-busy total of list

	// prev* snapshot the previous list's cached metadata. The graph tuner
	// alternates every device between the current schedule's list and one
	// candidate list, so keeping a depth-2 cache turns the revert back to the
	// current list into a buffer swap instead of a rebuild (durations and the
	// memory walk are recomputed only for genuinely new lists).
	prevList   []pipeline.Instr
	prevMetas  []meta
	prevComm   []int32
	prevPosted []float64
	prevDone   []float64
	prevPeers  []int32
	prevPeak   float64
	prevBusy   float64
}

// swapPrev exchanges the active cached metadata with the snapshot.
func (ds *devState) swapPrev() {
	ds.list, ds.prevList = ds.prevList, ds.list
	ds.metas, ds.prevMetas = ds.prevMetas, ds.metas
	ds.comm, ds.prevComm = ds.prevComm, ds.comm
	ds.posted, ds.prevPosted = ds.prevPosted, ds.posted
	ds.done, ds.prevDone = ds.prevDone, ds.done
	ds.peers, ds.prevPeers = ds.prevPeers, ds.peers
	ds.peak, ds.prevPeak = ds.prevPeak, ds.peak
	ds.busy, ds.prevBusy = ds.prevBusy, ds.busy
}

// Rebuilds counts, per device and per Simulate call, what refresh did with the
// device's cached metadata.
type Rebuilds struct {
	// Unchanged: the list identity matched the active cache entry.
	// Swap: it matched the depth-2 revert snapshot (a buffer swap).
	// Full: the metadata and the memory walk were re-derived from the list.
	Unchanged, Swap, Full int64
}

// Simulator is a reusable simulation engine. Its results are bit-identical to
// the package-level Simulate — every result is a pure function of (schedule,
// estimator, options) — but it caches, across calls, everything that survives
// a schedule edit:
//
//   - per-device instruction metadata (durations, communication matches,
//     link ids), keyed on the identity of each device's instruction list, so
//     re-simulating a schedule that shares most lists with a previous call
//     (a copy-on-write Clone candidate) rebuilds metadata only for the
//     devices that actually changed;
//   - per-device peak memory and compute-busy totals, which are pure
//     functions of one device's list;
//   - all propagation working buffers (ready queue, FIFO links, rendezvous
//     scratch), so steady-state re-simulation performs O(1) heap
//     allocations per call regardless of schedule size.
//
// The timing propagation itself is never cached: every call runs one full
// event-driven pass over all instructions.
//
// The zero value is ready to use. A Simulator is not safe for concurrent use;
// give each worker goroutine its own.
//
// Caching contract: metadata is keyed on list identity, so instruction lists
// must not be edited in place while an engine keys on them (until they fall
// out of its depth-2 cache, the engine is rebound, or Invalidate is called).
// Schedules mutated through pipeline.Schedule's copy-on-write API (Clone +
// MutableList/SetList) always satisfy this, because every edit lands in a
// freshly copied list. The engine holds the references it keys on, so the
// allocator can never hand a cached address to a different list. The
// *cost.Estimator must likewise not be mutated between calls that pass the
// same pointer.
type Simulator struct {
	// Sims counts Simulate calls on this engine and Rebuilds what refresh did
	// per device across them. They are plain fields — a Simulator is
	// single-goroutine by contract — that the graph and tuner layers read to
	// fold into the telemetry registry.
	Sims     int64
	Rebuilds Rebuilds

	// cache key of the bound (schedule family, estimator, options) tuple.
	// res, the bound schedule family's resolved placement, stands for the
	// placement and the micro-batch count; it also supplies the resident
	// stages, the link ids and the communication slots idx is laid out by.
	est     *cost.Estimator
	res     *pipeline.Resolved
	dp      int
	rdv     bool
	nStages int

	devs []devState
	// idx locates communication instructions by Resolved.CommSlot. Entries
	// store device+1 so the zero value means "absent" and reset is a memclr.
	idx []commLoc

	mem MemSim // reusable memory-walk scratch

	// durTab caches per-(kind, stage) compute durations and actComm/gradComm
	// the two p2p transfer latencies, all derived from the bound estimator;
	// rebuildDevice fills metas from these instead of re-deriving per
	// instruction.
	durTab            []float64
	actComm, gradComm float64

	// propagation scratch, reset (not reallocated) every run.
	clock    []float64
	pc       []int
	fifos    [][]fifoMsg
	fifoHead []int
	queue    []int32
	inQueue  []bool
	// linkWait[l] is the device blocked on link l's empty FIFO (-1 none);
	// each link has exactly one receiver, so one slot suffices.
	linkWait []int32
	// rdvWaiters[d] lists devices blocked on a rendezvous peer post by d;
	// waitIdx[w] is the peer instruction index waiter w is watching.
	rdvWaiters [][]int32
	waitIdx    []int32

	// changed[d] marks the devices whose list identity differs from the
	// previous call's; changedIDs lists them.
	changed    []bool
	changedIDs []int32
}

// Simulate runs the dynamic-programming timeline and memory simulation,
// reusing every cache and buffer that is still valid from the previous call.
func (m *Simulator) Simulate(s *pipeline.Schedule, e *cost.Estimator, opt Options) (*Result, error) {
	m.Sims++
	if e.Stages != s.NumStages() {
		return nil, fmt.Errorf("sim: estimator built for %d stages, schedule has %d", e.Stages, s.NumStages())
	}
	dp := opt.DP
	if dp <= 0 {
		dp = 1
	}
	m.bind(s, e, dp, opt.Rendezvous)
	if err := m.refresh(s, e); err != nil {
		// The caches are partially updated; force a full rebuild next call.
		m.est = nil
		return nil, err
	}

	D := len(m.devs)
	res := &Result{
		PeakMem:     make([]float64, D),
		ComputeBusy: make([]float64, D),
	}
	if !opt.NoTimeline {
		// Each instruction records at most one span; exact-capacity slices
		// avoid append's growth-doubling garbage on the timeline path.
		res.Timeline = make([][]Span, D)
		for d := range res.Timeline {
			res.Timeline[d] = make([]Span, 0, len(m.devs[d].list))
		}
	}
	if err := m.propagate(e, opt, res); err != nil {
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

// Invalidate drops every cached list identity while keeping the engine's
// buffers for capacity reuse. An engine that outlives one optimization run
// must be invalidated before the next: the previous run's result lists now
// belong to its caller (who may mutate them), so the next Simulate must
// rebuild from the actual schedule contents.
func (m *Simulator) Invalidate() {
	m.est = nil // bind treats a nil estimator as "rebuild everything"
}

// bind checks the coarse cache key (estimator, placement, micro count, DP,
// rendezvous mode) and resets every cache when it changed. Per-list caches
// are handled separately by refresh.
func (m *Simulator) bind(s *pipeline.Schedule, e *cost.Estimator, dp int, rdv bool) {
	D := s.NumDevices()
	if m.est == e && m.res.Resolves(s.Placement, s.Micros) &&
		m.dp == dp && m.rdv == rdv && len(m.devs) == D {
		return
	}
	m.est, m.res, m.dp, m.rdv, m.nStages = e, s.Resolved(), dp, rdv, s.NumStages()
	if cap(m.devs) >= D {
		m.devs = m.devs[:D]
	} else {
		m.devs = make([]devState, D)
	}
	for d := range m.devs {
		ds := &m.devs[d]
		ds.list = nil
		ds.prevList = nil // snapshots carry the old estimator's durations
		ds.comm = ds.comm[:0]
		ds.peers = ds.peers[:0]
		ds.stages = m.res.Stages(d)
		// Multiplying by the homogeneous slowdown 1 is bit-exact, so the
		// scale is applied unconditionally.
		ds.slow = e.SlowOf(d)
		ds.arDur = e.LaunchOverhead + e.AllReduceTime(dp, ds.stages)*ds.slow
		static := e.FrameworkMem
		for _, st := range ds.stages {
			static += e.WeightBytes[st]
		}
		ds.static = static
	}
	m.durTab = growF64(m.durTab, int(pipeline.BackwardWeight+1)*m.nStages)
	for st := 0; st < m.nStages; st++ {
		m.durTab[int(pipeline.Forward)*m.nStages+st] = e.LaunchOverhead + e.FwTime[st]
		m.durTab[int(pipeline.CkptForward)*m.nStages+st] = e.LaunchOverhead + e.FwTime[st]
		m.durTab[int(pipeline.Backward)*m.nStages+st] = e.LaunchOverhead + e.BwTime[st]
		m.durTab[int(pipeline.BackwardInput)*m.nStages+st] = e.LaunchOverhead + e.BwTime[st]*e.BwSplitRatio
		m.durTab[int(pipeline.BackwardWeight)*m.nStages+st] = e.LaunchOverhead + e.BwTime[st]*(1-e.BwSplitRatio)
		m.durTab[int(pipeline.Recompute)*m.nStages+st] = e.LaunchOverhead + e.RcTime[st]
		m.durTab[int(pipeline.OptimizerStep)*m.nStages+st] = e.LaunchOverhead + e.OptTime
	}
	m.actComm, m.gradComm = e.CommTime(e.ActP2PBytes), e.CommTime(e.GradP2PBytes)
	if need := m.res.CommSlots(); len(m.idx) == need {
		clear(m.idx)
	} else {
		m.idx = make([]commLoc, need)
	}
	if cap(m.changed) >= D {
		m.changed = m.changed[:D]
	} else {
		m.changed = make([]bool, D)
	}
}

// refresh re-derives the per-device metadata for every list whose identity
// changed since the previous call — by a buffer swap when the list is the
// depth-2 snapshot's, by a full rebuild otherwise — leaving unchanged devices
// untouched.
func (m *Simulator) refresh(s *pipeline.Schedule, e *cost.Estimator) error {
	D := len(m.devs)
	m.changedIDs = m.changedIDs[:0]
	for d := 0; d < D; d++ {
		list := s.Lists[d]
		ds := &m.devs[d]
		m.changed[d] = !sameIdent(ds.list, list)
		if m.changed[d] {
			m.changedIDs = append(m.changedIDs, int32(d))
		} else {
			m.Rebuilds.Unchanged++
		}
	}
	if len(m.changedIDs) == 0 {
		return nil
	}
	// Drop the stale communication keys of every changed device before any
	// re-registration, so a key that moved between devices resolves to its
	// new location.
	for _, d := range m.changedIDs {
		ds := &m.devs[d]
		for _, ci := range ds.comm {
			if slot := m.res.CommSlot(ds.list[ci].Key()); slot >= 0 {
				m.idx[slot] = commLoc{}
			}
		}
	}
	for _, d := range m.changedIDs {
		m.rebuildDevice(s, e, int(d))
	}
	// Resolve communication matches. A changed device re-resolves all of its
	// own (a swap restores two-generations-old matches, a full rebuild starts
	// unresolved); an unchanged one only those pointing into a changed peer —
	// matchDev is placement-determined and never changes for an unchanged
	// list. The scan runs device-major in list order — the same order a
	// from-scratch precompute discovers unmatched instructions in, so the
	// first error is byte-identical.
	for d := 0; d < D; d++ {
		ds := &m.devs[d]
		if !m.changed[d] && !anyChanged(m.changed, ds.peers) {
			// No match of this device can point into a changed list: peers is
			// a superset of the devices its matches resolve to.
			continue
		}
		for _, ci := range ds.comm {
			mt := &ds.metas[ci]
			if !m.changed[d] && mt.matchDev >= 0 && !m.changed[mt.matchDev] {
				continue
			}
			in := ds.list[ci]
			var loc commLoc
			if slot := m.res.CommSlot(s.MatchKey(in)); slot >= 0 {
				loc = m.idx[slot]
			}
			if loc.dev1 == 0 {
				return fmt.Errorf("sim: %s on device %d has no matching instruction", in, d)
			}
			mt.matchDev, mt.matchIdx = loc.dev1-1, loc.idx
			addPeer(&ds.peers, mt.matchDev)
		}
	}
	return nil
}

// sameIdent reports whether two lists share identity: same length and same
// backing array start.
func sameIdent(a, b []pipeline.Instr) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// anyChanged reports whether any listed device's list changed this refresh.
func anyChanged(changed []bool, devs []int32) bool {
	for _, d := range devs {
		if changed[d] {
			return true
		}
	}
	return false
}

// addPeer records device p in the (tiny, deduplicated) peer set.
func addPeer(peers *[]int32, p int32) {
	for _, q := range *peers {
		if q == p {
			return
		}
	}
	*peers = append(*peers, p)
}

// rebuildDevice brings device d's cached metadata, memory peak, and busy total
// in line with its current list. Communication matches are left unresolved;
// refresh resolves them after all changed devices re-registered their keys.
func (m *Simulator) rebuildDevice(s *pipeline.Schedule, e *cost.Estimator, d int) {
	list := s.Lists[d]
	ds := &m.devs[d]
	if sameIdent(ds.prevList, list) {
		// The snapshot of the second-to-last list restores with a buffer
		// swap plus key re-registration (refresh's delete phase dropped this
		// device's keys); durations, peak and busy are all still valid.
		m.Rebuilds.Swap++
		ds.swapPrev()
		for _, ci := range ds.comm {
			if slot := m.res.CommSlot(ds.list[ci].Key()); slot >= 0 {
				m.idx[slot] = commLoc{dev1: int32(d) + 1, idx: ci}
			}
		}
	} else {
		m.Rebuilds.Full++
		ds.swapPrev() // retire the outgoing metadata into the snapshot slot
		ds.list = list
		if cap(ds.metas) >= len(list) {
			ds.metas = ds.metas[:len(list)]
		} else {
			ds.metas = make([]meta, len(list))
		}
		ds.comm = ds.comm[:0]
		ds.peers = ds.peers[:0]
		busy := 0.0
		for i, in := range list {
			if m.fillMeta(e, ds, d, i, in) {
				ds.comm = append(ds.comm, int32(i))
			}
			if mt := &ds.metas[i]; mt.compute {
				busy += mt.dur
			}
		}
		ds.busy = busy

		m.mem.rebind(e, s.Micros, s.NumStages(), ds.static, list)
		for _, in := range list {
			m.mem.Step(in)
		}
		ds.peak = m.mem.Peak()
	}
	if m.rdv {
		ds.posted = growF64(ds.posted, len(list))
		ds.done = growF64(ds.done, len(list))
	}
}

// fillMeta derives device d's metadata for instruction i — duration or comm
// latency, class, link id — registers communication keys in the comm index,
// and reports whether the instruction is a communication (the caller indexes
// it in ds.comm).
func (m *Simulator) fillMeta(e *cost.Estimator, ds *devState, d, i int, in pipeline.Instr) bool {
	mt := &ds.metas[i]
	*mt = meta{matchDev: -1, matchIdx: -1}
	switch in.Kind {
	case pipeline.Forward, pipeline.CkptForward, pipeline.Backward,
		pipeline.BackwardInput, pipeline.BackwardWeight,
		pipeline.Recompute, pipeline.OptimizerStep:
		if ds.slow != 1 {
			// Heterogeneous rank: re-derive the base from the estimator with
			// the same expression ComputeBase exposes to the tuner bounds, so
			// a bound's lo + base·slow term and the simulated duration are the
			// same float value — admissibility holds at the bit level.
			mt.dur = e.LaunchOverhead + ComputeBase(e, in.Kind, in.Stage)*ds.slow
		} else {
			// Same arithmetic as the estimator calls, hoisted into the
			// bind-time duration table.
			mt.dur = m.durTab[int(in.Kind)*m.nStages+in.Stage]
		}
		mt.compute = true
	case pipeline.AllReduce:
		mt.dur = ds.arDur
		mt.compute = true
	case pipeline.SendAct, pipeline.SendGrad, pipeline.RecvAct, pipeline.RecvGrad:
		mt.comm = m.actComm
		if in.Kind == pipeline.SendGrad || in.Kind == pipeline.RecvGrad {
			mt.comm = m.gradComm
		}
		mt.class = classRecv
		if in.Kind == pipeline.SendAct || in.Kind == pipeline.SendGrad {
			mt.class = classSend
		}
		// A transfer with no other end has no link and no match either;
		// refresh reports that before propagation can touch the dummy link.
		if l := m.res.Link(in); l >= 0 {
			mt.link = int32(l)
		}
		if slot := m.res.CommSlot(in.Key()); slot >= 0 {
			m.idx[slot] = commLoc{dev1: int32(d) + 1, idx: int32(i)}
		}
		return true
	default:
		mt.dur = e.LaunchOverhead
	}
	return false
}

// ComputeBase returns the unscaled estimator latency of a compute kind on the
// given stage — the value the engine's duration table stores before launch
// overhead and per-device slowdown are applied. The tuner's admissible bounds
// call it so their per-device lo + base·slow terms are bit-identical to the
// simulated durations. Non-compute kinds return 0.
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

// propagate runs the event-driven earliest-start-time propagation: each
// device advances until it blocks on a dependency, registers itself as a
// waiter, and is re-enqueued exactly when the dependency is satisfied —
// replacing the O(D × passes) round-robin retry sweep. The computed times are
// a pure dataflow fixpoint, so they are independent of wake order and
// bit-identical to the round-robin result.
func (m *Simulator) propagate(e *cost.Estimator, opt Options, res *Result) error {
	D := len(m.devs)
	m.clock = growF64(m.clock, D)
	m.pc = growInt(m.pc, D)
	for d := 0; d < D; d++ {
		m.clock[d] = 0
		m.pc[d] = 0
	}
	nLinks := m.res.NumLinks()
	if cap(m.fifos) >= nLinks {
		m.fifos = m.fifos[:nLinks]
	} else {
		grown := make([][]fifoMsg, nLinks)
		copy(grown, m.fifos) // keep the per-link buffers already allocated
		m.fifos = grown
	}
	m.fifoHead = growInt(m.fifoHead, nLinks)
	m.linkWait = growInt32(m.linkWait, nLinks)
	for l := 0; l < nLinks; l++ {
		m.fifos[l] = m.fifos[l][:0]
		m.fifoHead[l] = 0
		m.linkWait[l] = -1
	}
	if opt.Rendezvous {
		for d := range m.devs {
			ds := &m.devs[d]
			fillNaN(ds.posted)
			fillNaN(ds.done)
		}
		if cap(m.rdvWaiters) >= D {
			m.rdvWaiters = m.rdvWaiters[:D]
		} else {
			grown := make([][]int32, D)
			copy(grown, m.rdvWaiters)
			m.rdvWaiters = grown
		}
		for d := 0; d < D; d++ {
			m.rdvWaiters[d] = m.rdvWaiters[d][:0]
		}
		m.waitIdx = growInt32(m.waitIdx, D)
	}
	m.inQueue = growBool(m.inQueue, D)
	m.queue = m.queue[:0]
	for d := 0; d < D; d++ {
		m.inQueue[d] = true
		m.queue = append(m.queue, int32(d))
	}

	for head := 0; head < len(m.queue); head++ {
		d := int(m.queue[head])
		m.inQueue[d] = false
		if err := m.runDevice(d, e, opt, res); err != nil {
			return err
		}
		if opt.Rendezvous {
			m.wakeRendezvous(d)
		}
	}

	for d := 0; d < D; d++ {
		if m.pc[d] < len(m.devs[d].list) {
			return fmt.Errorf("%w: device %d blocked at %s", ErrDeadlock, d, m.devs[d].list[m.pc[d]])
		}
		if m.clock[d] > res.Total {
			res.Total = m.clock[d]
		}
	}
	return nil
}

// runDevice advances device d until it finishes or blocks.
func (m *Simulator) runDevice(d int, e *cost.Estimator, opt Options, res *Result) error {
	ds := &m.devs[d]
	list := ds.list
	metas := ds.metas
	i := m.pc[d]
	clock := m.clock[d]
	for i < len(list) {
		mt := &metas[i]
		start := clock
		if opt.Rendezvous && math.IsNaN(ds.posted[i]) {
			ds.posted[i] = start
		}
		switch mt.class {
		case classCompute:
			clock = start + mt.dur
		case classSend:
			if opt.Rendezvous {
				peer := &m.devs[mt.matchDev]
				peerPost := peer.posted[mt.matchIdx]
				if math.IsNaN(peerPost) {
					m.waitIdx[d] = mt.matchIdx
					m.rdvWaiters[mt.matchDev] = append(m.rdvWaiters[mt.matchDev], int32(d))
					goto blocked
				}
				t := max64(start, peerPost) + e.LaunchOverhead + mt.comm
				peer.done[mt.matchIdx] = t
				clock = t
			} else {
				clock = start + e.LaunchOverhead
				m.fifos[mt.link] = append(m.fifos[mt.link], fifoMsg{
					dev: mt.matchDev, idx: mt.matchIdx, arrive: clock + mt.comm,
				})
				if w := m.linkWait[mt.link]; w >= 0 {
					m.linkWait[mt.link] = -1
					m.enqueue(w)
				}
			}
		case classRecv:
			if opt.Rendezvous {
				if t := ds.done[i]; !math.IsNaN(t) {
					clock = t
					break
				}
				peerPost := m.devs[mt.matchDev].posted[mt.matchIdx]
				if math.IsNaN(peerPost) {
					m.waitIdx[d] = mt.matchIdx
					m.rdvWaiters[mt.matchDev] = append(m.rdvWaiters[mt.matchDev], int32(d))
					goto blocked
				}
				t := max64(start, peerPost) + e.LaunchOverhead + mt.comm
				ds.done[i] = t
				clock = t
			} else {
				q := m.fifos[mt.link]
				h := m.fifoHead[mt.link]
				if h >= len(q) {
					m.linkWait[mt.link] = int32(d)
					goto blocked
				}
				msg := q[h]
				if int(msg.dev) != d || int(msg.idx) != i {
					m.pc[d], m.clock[d] = i, clock
					return fmt.Errorf("%w: device %d expects %s but link head is for dev%d[%d]",
						ErrCommMismatch, d, list[i], msg.dev, msg.idx)
				}
				m.fifoHead[mt.link] = h + 1
				clock = start + e.LaunchOverhead
				mt.late = msg.arrive > clock
				if mt.late {
					clock = msg.arrive
				}
			}
		}
		if !opt.NoTimeline {
			res.Timeline[d] = append(res.Timeline[d], Span{Instr: list[i], Start: start, End: clock})
		}
		i++
	}
blocked:
	m.pc[d], m.clock[d] = i, clock
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
// run's Total. Ties go to list order. Only a successful eager run leaves a
// chain behind: after an error the walk is meaningless, and under rendezvous
// links, whose posts bind in both directions, dst comes back as it was.
func (m *Simulator) CriticalChain(dst []Segment) []Segment {
	if m.rdv || len(m.devs) == 0 {
		return dst
	}
	d := 0
	for o := range m.devs {
		if m.clock[o] > m.clock[d] {
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

// wakeRendezvous re-enqueues every device whose awaited post on d appeared
// during d's last run segment.
func (m *Simulator) wakeRendezvous(d int) {
	ws := m.rdvWaiters[d]
	if len(ws) == 0 {
		return
	}
	posted := m.devs[d].posted
	kept := ws[:0]
	for _, w := range ws {
		if math.IsNaN(posted[m.waitIdx[w]]) {
			kept = append(kept, w)
		} else {
			m.enqueue(w)
		}
	}
	m.rdvWaiters[d] = kept
}

func (m *Simulator) enqueue(d int32) {
	if !m.inQueue[d] {
		m.inQueue[d] = true
		m.queue = append(m.queue, d)
	}
}

func growF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func growInt(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

func growBool(s []bool, n int) []bool {
	if cap(s) >= n {
		s = s[:n]
	} else {
		s = make([]bool, n)
	}
	for i := range s {
		s[i] = false
	}
	return s
}

func fillNaN(s []float64) {
	nan := math.NaN()
	for i := range s {
		s[i] = nan
	}
}
