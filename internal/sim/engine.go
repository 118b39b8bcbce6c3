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

// commKindIdx maps the four communication kinds onto 0..3 for the flat index.
func commKindIdx(k pipeline.Kind) int {
	switch k {
	case pipeline.SendAct:
		return 0
	case pipeline.RecvAct:
		return 1
	case pipeline.SendGrad:
		return 2
	default: // RecvGrad; callers only pass communication kinds
		return 3
	}
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

	// own is the engine-owned copy buffer Detach re-keys list onto when the
	// caller reclaims the simulated schedule's storage.
	own []pipeline.Instr
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

// Simulator is a reusable simulation engine. Its results are bit-identical to
// the package-level Simulate, but it caches — across calls — everything that
// survives a schedule edit:
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
// The zero value is ready to use. A Simulator is not safe for concurrent use;
// give each worker goroutine its own.
//
// Caching contract: metadata is keyed on list identity, so instruction lists
// must not be edited in place between calls that hand them to the same
// Simulator. Schedules mutated through pipeline.Schedule's copy-on-write API
// (Clone + MutableList/SetList) always satisfy this, because every edit lands
// in a freshly copied list. The *cost.Estimator must likewise not be mutated
// between calls that pass the same pointer.
type Simulator struct {
	// Sims counts Simulate calls on this engine. It is a plain field — a
	// Simulator is single-goroutine by contract — that the graph and tuner
	// layers read to fold simulation counts into the telemetry registry.
	Sims int64

	// cache key of the bound (schedule family, estimator, options) tuple.
	est       *cost.Estimator
	placement pipeline.Placement
	micros    int
	dp        int
	rdv       bool

	nParts  int
	nStages int

	devs []devState
	// idx locates communication instructions by their dense
	// (kind, part, micro, stage) coordinate — see commSlot. Entries store
	// device+1 so the zero value means "absent" and reset is a memclr.
	idx []commLoc
	// linkLookup maps the dense (from, to, channel) coordinate to a compact
	// link id + 1 (zero = unassigned); nLinks counts assigned ids so the
	// propagation scratch is sized and reset by actual links, not D².
	linkLookup []int32
	nLinks     int

	mem MemSim // reusable memory-walk scratch

	// durTab caches per-(kind, stage) compute durations and actComm/gradComm
	// the two p2p transfer latencies, all derived from the bound estimator;
	// rebuildDevice fills metas from these instead of re-deriving per
	// instruction. peerTab lazily caches the placement-determined peer
	// device of each (comm kind, part, stage) coordinate (-2 = not yet
	// derived).
	durTab            []float64
	actComm, gradComm float64
	peerTab           []int32

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

	changed    []bool
	changedIDs []int32
	// plan[d] is the rebuild strategy refresh chose for device d this call;
	// moved[d] marks devices whose instruction positions inside
	// [winLo[d], winHi[d]) may have changed, so only matches pointing into
	// that range need re-resolution.
	plan         []int8
	moved        []bool
	winLo, winHi []int32

	// last is the delta-simulation snapshot of the previous successful run;
	// restart/coneStack are the dirty-cone scratch (see delta.go).
	last fixpoint
	// base is a pinned copy of the first adopting run's fixpoint after a
	// Detach (or engine reset): an optimization run's search walks away from
	// its starting schedule, but the NEXT run over the same inputs starts
	// from that same content again — restoring base turns its baseline
	// simulation into a pure splice. basePinned marks base as holding this
	// run's starting fixpoint; baseUse arms the one-shot restore.
	base       fixpoint
	basePinned bool
	baseUse    bool
	restart    []int
	coneStack  []int32
	// convIdx[d] is the replay index from which device d may converge back
	// onto the snapshot timings (maxInt outside delta replays); convSuf,
	// resolved and lastDiffSend are its inputs — see propagateDelta.
	convIdx []int
	convSuf []int
	// resolved[d] reports that every send of device d has a determined
	// arrival this run (the device finished or spliced); lastDiffSend[d] is
	// the last send index whose replayed completion differed bitwise from
	// the snapshot, -1 when none did.
	resolved     []bool
	lastDiffSend []int
	// outT[d] is runDevice's completion-clock write target: the snapshot
	// arrays for runs that adopt their fixpoint, the probeT scratch for
	// probe runs. inDelta gates the per-send snapshot comparison.
	outT    [][]float64
	probeT  [][]float64
	inDelta bool
	// wrote[d] bounds the probeT entries the last delta run actually wrote
	// for device d ([restart, wrote)); a spliced device stops early and the
	// rest stays snapshot data. probeOK marks that the engine's most recent
	// call was a successful probe delta run, making Commit applicable.
	wrote   []int
	probeOK bool
	stats   DeltaStats
}

// Simulate runs the dynamic-programming timeline and memory simulation,
// reusing every cache and buffer that is still valid from the previous call.
func (m *Simulator) Simulate(s *pipeline.Schedule, e *cost.Estimator, opt Options) (*Result, error) {
	m.Sims++
	m.probeOK = false
	if e.Stages != s.NumStages() {
		return nil, fmt.Errorf("sim: estimator built for %d stages, schedule has %d", e.Stages, s.NumStages())
	}
	dp := opt.DP
	if dp <= 0 {
		dp = 1
	}
	m.bind(s, e, dp, opt.Rendezvous)
	if err := m.refresh(s, e, dp); err != nil {
		// The caches are partially updated; force a full rebuild next call.
		m.est = nil
		return nil, err
	}
	if m.baseUse {
		m.baseUse = false
		if m.base.valid {
			m.restoreBase()
		}
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
	if m.deltaEligible(opt) {
		// The replay-and-splice path never records spans inline (spliced
		// instructions are not executed); run it span-free and synthesize the
		// timeline from the completion clocks afterwards.
		dopt := opt
		dopt.NoTimeline = true
		if err := m.propagateDelta(e, dopt, res); err != nil {
			return nil, err
		}
		if !opt.NoTimeline {
			m.synthTimeline(res)
		}
	} else {
		m.stats.Full++
		m.ensureEndT()
		m.outT = m.last.endT
		m.inDelta = false
		if err := m.propagate(e, opt, res); err != nil {
			m.last.valid = false
			return nil, err
		}
		m.saveFixpoint(opt)
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
	if !opt.Probe && m.last.valid && !m.basePinned {
		m.pinBase()
	}
	return res, nil
}

// Invalidate drops every cached list identity and the delta snapshot while
// keeping the engine's buffers for capacity reuse. Callers that pool warm
// engines across independent optimization runs must call it before an engine
// changes hands: cached identities may alias memory the previous run's
// caller now owns (and may mutate), so the next Simulate must rebuild from
// the actual schedule contents.
func (m *Simulator) Invalidate() {
	m.est = nil // bind treats a nil estimator as "rebuild everything"
	m.last.valid = false
	m.probeOK = false
	m.base.valid = false
	m.basePinned = false
	m.baseUse = false
}

// Detach re-keys every cached list onto an engine-owned copy so a pooled
// engine survives its caller reclaiming — and later mutating — the result
// schedule's lists. It is the cheap alternative to Invalidate when the next
// run is likely a near-identical schedule (a tuner sweeping neighbouring
// grid points, a benchmark loop): contents are copied verbatim, the next
// Simulate sees every device as identity-changed and diffs by value against
// the copies, so warm metadata, cached memory walks and the delta snapshot
// keep paying off instead of being rebuilt from scratch. The depth-2 revert
// snapshot is dropped — its lists may alias recycled candidate buffers the
// caller's pools are free to overwrite.
func (m *Simulator) Detach() {
	m.probeOK = false
	for d := range m.devs {
		ds := &m.devs[d]
		ds.prevList = nil
		if ds.list == nil {
			continue
		}
		old := ds.list
		ds.own = append(ds.own[:0], old...)
		ds.list = ds.own
		if d < len(m.last.lists) {
			if sameIdent(m.last.lists[d], old) {
				m.last.lists[d] = ds.own
			} else {
				// The snapshot ran on some other identity we no longer
				// retain; forget the device so it replays from scratch.
				m.last.lists[d] = nil
			}
		}
		if d < len(m.base.lists) && sameIdent(m.base.lists[d], old) {
			m.base.lists[d] = ds.own
		}
	}
	// Arm the one-shot base restore: the next caller's first simulation is
	// usually the same starting content this run began from. Unpin so that
	// first adopting run re-pins base onto its fresh identities.
	m.baseUse = m.base.valid && m.basePinned
	m.basePinned = false
}

// sameIdent reports whether two slices share identity: same length and same
// backing array start.
func sameIdent(a, b []pipeline.Instr) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// bind checks the coarse cache key (estimator, placement, micro count, DP,
// rendezvous mode) and resets every cache when it changed. Per-list caches
// are handled separately by refresh.
func (m *Simulator) bind(s *pipeline.Schedule, e *cost.Estimator, dp int, rdv bool) {
	D := s.NumDevices()
	if m.est == e && m.placement == s.Placement && m.micros == s.Micros &&
		m.dp == dp && m.rdv == rdv && len(m.devs) == D {
		return
	}
	m.est, m.placement, m.micros, m.dp, m.rdv = e, s.Placement, s.Micros, dp, rdv
	m.last.valid = false
	m.base.valid = false
	m.basePinned = false
	m.baseUse = false
	m.nParts, m.nStages = s.Placement.NumParts(), s.Placement.NumStages()
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
		ds.stages = appendDeviceStages(ds.stages[:0], s.Placement, d)
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
	nCoord := 4 * m.nParts * m.nStages
	m.peerTab = growInt32(m.peerTab, nCoord)
	for i := 0; i < nCoord; i++ {
		m.peerTab[i] = -2 // not yet derived
	}
	if need := 4 * m.nParts * m.micros * m.nStages; len(m.idx) == need {
		clear(m.idx)
	} else {
		m.idx = make([]commLoc, need)
	}
	if need := 2 * D * D; len(m.linkLookup) == need {
		clear(m.linkLookup)
	} else {
		m.linkLookup = make([]int32, need)
	}
	m.nLinks = 0
	if cap(m.changed) >= D {
		m.changed = m.changed[:D]
	} else {
		m.changed = make([]bool, D)
	}
}

// refresh re-derives the per-device metadata for every list whose identity
// changed since the previous call, leaving unchanged devices untouched.
// Rebuild plans refresh assigns to changed devices. A permutation window
// (planRekey, planWindow) preserves the communication key multiset exactly —
// Buffered is not part of the key — so those devices keep their registry
// entries and skip the stale-key drop; only moved indices re-register.
const (
	planNone   int8 = iota // identity unchanged
	planSwap               // depth-2 snapshot restore (buffer swap)
	planRekey              // content-identical list under a new identity
	planWindow             // permutation window rebuild
	planFull               // full metadata rebuild
)

func (m *Simulator) refresh(s *pipeline.Schedule, e *cost.Estimator, dp int) error {
	D := len(m.devs)
	m.changedIDs = m.changedIDs[:0]
	if cap(m.plan) >= D {
		m.plan = m.plan[:D]
		m.moved = m.moved[:D]
		m.winLo = m.winLo[:D]
		m.winHi = m.winHi[:D]
	} else {
		m.plan = make([]int8, D)
		m.moved = make([]bool, D)
		m.winLo = make([]int32, D)
		m.winHi = make([]int32, D)
	}
	for d := 0; d < D; d++ {
		list := s.Lists[d]
		ds := &m.devs[d]
		if len(ds.list) == len(list) && (len(list) == 0 || &ds.list[0] == &list[0]) {
			m.changed[d] = false
			m.plan[d] = planNone
			m.moved[d] = false
			continue
		}
		m.changed[d] = true
		m.changedIDs = append(m.changedIDs, int32(d))
		if len(ds.prevList) == len(list) && (len(list) == 0 || &ds.prevList[0] == &list[0]) {
			m.plan[d] = planSwap
			m.moved[d] = true
			m.winLo[d], m.winHi[d] = 0, int32(len(list))
			continue
		}
		if old := ds.list; old != nil && !m.rdv && len(old) == len(list) {
			if lo, hi, flips, nFlips, ok := permWindow(old, list); ok &&
				suffixFlipFree(list, hi, &flips, nFlips) &&
				windowPairingPreserved(old, list, lo, hi) {
				if lo == len(list) {
					m.plan[d] = planRekey
					m.moved[d] = false
				} else {
					m.plan[d] = planWindow
					m.moved[d] = true
					m.winLo[d], m.winHi[d] = int32(lo), int32(hi)
				}
				continue
			}
		}
		m.plan[d] = planFull
		m.moved[d] = true
		m.winLo[d], m.winHi[d] = 0, int32(len(list))
	}
	if len(m.changedIDs) == 0 {
		return nil
	}
	// Drop the stale communication keys of every device whose key set may
	// change, before any re-registration, so a key that moved between
	// devices resolves to its new location. Permutation-window devices
	// (planRekey/planWindow) keep the exact key multiset and skip the drop;
	// their moved indices re-register during the rebuild.
	for _, d := range m.changedIDs {
		if p := m.plan[d]; p == planRekey || p == planWindow {
			continue
		}
		ds := &m.devs[d]
		for _, ci := range ds.comm {
			if slot := m.commSlot(ds.list[ci].Key()); slot >= 0 {
				m.idx[slot] = commLoc{}
			}
		}
	}
	for _, d := range m.changedIDs {
		m.rebuildDevice(s, e, dp, int(d))
	}
	// Resolve communication matches. A match needs (re-)resolution when its
	// own metadata was rebuilt from scratch (planSwap restores two-
	// generations-old matches, planFull starts unresolved) or when it points
	// into a moved index range of a peer; matchDev is placement-determined
	// and never changes for an unchanged list, and positions outside a
	// peer's window are untouched by its rebuild. The scan runs device-major
	// in list order — the same order the from-scratch precompute discovered
	// unmatched instructions in, so the first error is byte-identical.
	for d := 0; d < D; d++ {
		ds := &m.devs[d]
		if !m.changed[d] && !anyChanged(m.moved, ds.peers) {
			// No match of this device can point into a moved list region:
			// peers is a superset of the devices its matches resolve to.
			continue
		}
		ownFresh := m.plan[d] == planSwap || m.plan[d] == planFull
		for _, ci := range ds.comm {
			mt := &ds.metas[ci]
			if !ownFresh && mt.matchDev >= 0 {
				if p := mt.matchDev; !m.moved[p] || mt.matchIdx < m.winLo[p] || mt.matchIdx >= m.winHi[p] {
					continue
				}
			}
			in := ds.list[ci]
			var loc commLoc
			if slot := m.commSlot(s.MatchKey(in)); slot >= 0 {
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

// Holds reports whether the engine's per-device cache still references list
// as device dev's active or snapshot entry. Buffer pools recycling dead
// candidate lists must check this: reusing a buffer the engine still keys on
// would alias new content at a cached identity and poison the cache.
func (m *Simulator) Holds(dev int, list []pipeline.Instr) bool {
	if len(list) == 0 || dev < 0 || dev >= len(m.devs) {
		return false
	}
	ds := &m.devs[dev]
	if (len(ds.list) == len(list) && &ds.list[0] == &list[0]) ||
		(len(ds.prevList) == len(list) && &ds.prevList[0] == &list[0]) {
		return true
	}
	// The delta snapshot also keys on list identity (the value diff reads the
	// old contents), so it pins buffers the same way the metadata cache does.
	if dev < len(m.last.lists) {
		if old := m.last.lists[dev]; len(old) == len(list) && &old[0] == &list[0] {
			return true
		}
	}
	// So does the pinned base fixpoint: restoreBase re-installs its lists as
	// the next delta run's diff targets, which firstDiff then reads by value.
	if dev < len(m.base.lists) {
		if old := m.base.lists[dev]; len(old) == len(list) && &old[0] == &list[0] {
			return true
		}
	}
	return false
}

// Forget drops any cache entry keying device dev on the given list identity,
// making it safe to recycle the list's buffer. Only the identity keys are
// cleared — the metadata buffers stay for capacity reuse — so the next
// Simulate falls back to a full rebuild for entries dropped this way.
func (m *Simulator) Forget(dev int, list []pipeline.Instr) {
	if len(list) == 0 || dev < 0 || dev >= len(m.devs) {
		return
	}
	ds := &m.devs[dev]
	if len(ds.list) == len(list) && &ds.list[0] == &list[0] {
		// The active entry owns this device's registrations in the comm
		// index; retract them now, since the next refresh's stale-key drop
		// walks the (cleared) list.
		for _, ci := range ds.comm {
			if slot := m.commSlot(ds.list[ci].Key()); slot >= 0 {
				m.idx[slot] = commLoc{}
			}
		}
		ds.list = nil
		ds.comm = ds.comm[:0]
	}
	if len(ds.prevList) == len(list) && &ds.prevList[0] == &list[0] {
		// Snapshot entries hold no comm-index registrations.
		ds.prevList = nil
	}
	if dev < len(m.last.lists) {
		if old := m.last.lists[dev]; len(old) == len(list) && &old[0] == &list[0] {
			// Only this device's delta entry dies: a nil snapshot list makes
			// the next delta run replay the device from scratch, which is
			// handled by the ordinary dirty-cone machinery.
			m.last.lists[dev] = nil
		}
	}
	if dev < len(m.base.lists) {
		if old := m.base.lists[dev]; len(old) == len(list) && &old[0] == &list[0] {
			// Same per-device semantics for the pinned base: a restore
			// installs a nil entry and the device replays from scratch.
			m.base.lists[dev] = nil
		}
	}
}

// commSlot returns the flat m.idx slot of a communication key, or -1 when its
// coordinates fall outside the schedule's (part, micro, stage) space — such
// keys are simply never found, the behaviour a hash index gave them.
func (m *Simulator) commSlot(k pipeline.Key) int {
	if k.Micro < 0 || k.Micro >= m.micros ||
		k.Part < 0 || k.Part >= m.nParts ||
		k.Stage < 0 || k.Stage >= m.nStages {
		return -1
	}
	return ((commKindIdx(k.Kind)*m.nParts+k.Part)*m.micros+k.Micro)*m.nStages + k.Stage
}

// peerOf resolves the placement peer of a communication instruction through
// the lazy (kind, part, stage) cache; PeerDevice is placement-determined and
// device-independent for communication kinds, so the coordinate fully keys
// the answer.
func (m *Simulator) peerOf(s *pipeline.Schedule, d int, in pipeline.Instr) int {
	if in.Part < 0 || in.Part >= m.nParts || in.Stage < 0 || in.Stage >= m.nStages {
		return s.PeerDevice(d, in)
	}
	ci := (commKindIdx(in.Kind)*m.nParts+in.Part)*m.nStages + in.Stage
	if p := m.peerTab[ci]; p != -2 {
		return int(p)
	}
	p := s.PeerDevice(d, in)
	m.peerTab[ci] = int32(p)
	return p
}

// rebuildDevice recomputes device d's cached metadata, memory peak, and busy
// total from its current list. Communication matches are left unresolved;
// refresh resolves them after all changed devices re-registered their keys.
func (m *Simulator) rebuildDevice(s *pipeline.Schedule, e *cost.Estimator, dp int, d int) {
	list := s.Lists[d]
	ds := &m.devs[d]
	switch m.plan[d] {
	case planSwap:
		// The snapshot of the second-to-last list restores with a buffer
		// swap plus key re-registration (refresh's delete phase dropped this
		// device's keys); durations, peak and busy are all still valid.
		m.stats.SwapRebuilds++
		ds.swapPrev()
		for _, ci := range ds.comm {
			if slot := m.commSlot(ds.list[ci].Key()); slot >= 0 {
				m.idx[slot] = commLoc{dev1: int32(d) + 1, idx: ci}
			}
		}
		if m.rdv {
			ds.posted = growF64(ds.posted, len(list))
			ds.done = growF64(ds.done, len(list))
		}
		return
	case planRekey:
		// Content-identical list under a new identity: every cached
		// artifact — including the registry entries refresh left in place —
		// still applies verbatim.
		m.stats.WindowRebuilds++
		ds.list = list
		return
	case planWindow:
		m.stats.WindowRebuilds++
		m.rebuildWindowed(s, e, d, list, int(m.winLo[d]), int(m.winHi[d]))
		return
	}
	m.stats.FullRebuilds++
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
		if m.fillMeta(s, e, ds, d, i, in) {
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

	if m.rdv {
		ds.posted = growF64(ds.posted, len(list))
		ds.done = growF64(ds.done, len(list))
	}
}

// fillMeta derives device d's metadata for instruction i — duration or comm
// latency, class, link id — registers communication keys in the comm index,
// and reports whether the instruction is a communication (the caller indexes
// it in ds.comm). Shared by the full and windowed rebuild paths so both
// derive bit-identical metadata.
func (m *Simulator) fillMeta(s *pipeline.Schedule, e *cost.Estimator, ds *devState, d, i int, in pipeline.Instr) bool {
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
		peer := m.peerOf(s, d, in)
		var from, to int
		if in.Kind == pipeline.SendAct || in.Kind == pipeline.SendGrad {
			mt.class = classSend
			from, to = d, peer
		} else {
			mt.class = classRecv
			from, to = peer, d
		}
		// An out-of-range peer means the match is missing; refresh
		// reports that before propagation can touch the dummy link.
		if D := len(m.devs); peer >= 0 && peer < D {
			ls := (from*D+to)*2 + channelOf(in.Kind)
			id := m.linkLookup[ls] - 1
			if id < 0 {
				id = int32(m.nLinks)
				m.nLinks++
				m.linkLookup[ls] = id + 1
			}
			mt.link = id
		}
		if slot := m.commSlot(in.Key()); slot >= 0 {
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

// permWindow diffs two equal-length lists and reports the window [lo, hi)
// outside which they are element-identical, provided the window contents are
// a permutation of each other up to Buffered-flag flips on otherwise
// identical instructions. flips returns the (micro, stage) cells whose
// SendAct changed its Buffered flag — the caller must verify no suffix
// CkptForward reads the flipped staging-buffer bitmap. Only windows up to 32
// instructions with at most 8 flips qualify; larger or structural edits fall
// back to the full rebuild. lo == hi == len means element-identical lists.
func permWindow(old, list []pipeline.Instr) (lo, hi int, flips [8][2]int32, nFlips int, ok bool) {
	n := len(list)
	for lo < n && old[lo] == list[lo] {
		lo++
	}
	if lo == n {
		return n, n, flips, 0, true
	}
	hi = n
	for hi > lo && old[hi-1] == list[hi-1] {
		hi--
	}
	if hi-lo > 32 {
		return 0, 0, flips, 0, false
	}
	var used [32]bool
	nf := 0
	for i := lo; i < hi; i++ {
		// Prefer an exact unused match; interchangeable entries make the
		// greedy choice safe.
		found := false
		for j := lo; j < hi; j++ {
			if !used[j-lo] && old[j] == list[i] {
				used[j-lo] = true
				found = true
				break
			}
		}
		if found {
			continue
		}
		// Otherwise pair with an old entry differing only in the Buffered
		// flag (every other field must agree).
		for j := lo; j < hi; j++ {
			if used[j-lo] {
				continue
			}
			o := old[j]
			if o.Buffered != list[i].Buffered {
				o.Buffered = list[i].Buffered
				if o == list[i] {
					if nf == len(flips) {
						return 0, 0, flips, 0, false
					}
					flips[nf] = [2]int32{int32(o.Micro), int32(o.Stage)}
					nf++
					used[j-lo] = true
					found = true
					break
				}
			}
		}
		if !found {
			return 0, 0, flips, 0, false
		}
	}
	return lo, hi, flips, nf, true
}

// suffixFlipFree reports whether the suffix [hi, len) is unaffected by the
// Buffered flips permWindow found. A flip changes the list-wide staging
// bitmap for its (micro, stage) cell, which alters the memory delta of that
// cell's CkptForward; if such a CkptForward sits in the suffix, the cached
// suffix levels no longer apply and the splice would be unsound. A schedule
// always places the CkptForward before its SendAct — which is inside the
// window — so the scan only rejects malformed lists.
func suffixFlipFree(list []pipeline.Instr, hi int, flips *[8][2]int32, nFlips int) bool {
	if nFlips == 0 {
		return true
	}
	for _, in := range list[hi:] {
		if in.Kind != pipeline.CkptForward {
			continue
		}
		for _, f := range flips[:nFlips] {
			if int32(in.Micro) == f[0] && int32(in.Stage) == f[1] {
				return false
			}
		}
	}
	return true
}

// pairedConsumers returns the instruction kinds whose memory effect depends
// on state the given producer kind wrote for its (micro, stage) cell: a
// CkptForward sets the checkpoint bit the cell's Backward or BackwardInput
// consumes (the stash is subtracted only while the bit is set), and a
// BackwardInput records the weight-gradient stash its BackwardWeight
// releases. nil means the kind produces no such state.
func pairedConsumers(k pipeline.Kind) []pipeline.Kind {
	switch k {
	case pipeline.CkptForward:
		return ckptConsumerKinds
	case pipeline.BackwardInput:
		return wgradConsumerKinds
	}
	return nil
}

var (
	ckptConsumerKinds  = []pipeline.Kind{pipeline.Backward, pipeline.BackwardInput}
	wgradConsumerKinds = []pipeline.Kind{pipeline.BackwardWeight}
)

// windowPairingPreserved reports whether the permutation window [lo, hi)
// keeps every stateful producer (CkptForward, BackwardInput) in its order
// relative to the consumer instructions of its (micro, stage) cell — a
// window that moves a consumer across its cell's producer changes the
// residual level after the window and invalidates the spliced suffix peaks.
// Pairs with one endpoint outside the window cannot flip, since prefix and
// suffix positions are identical in both lists. Cells with duplicate
// same-kind entries inside the window are rejected conservatively.
func windowPairingPreserved(old, list []pipeline.Instr, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		in := list[i]
		consumers := pairedConsumers(in.Kind)
		if consumers == nil {
			continue
		}
		oi := -1
		for j := lo; j < hi; j++ {
			if k := list[j]; j != i && k.Kind == in.Kind && k.Micro == in.Micro && k.Stage == in.Stage {
				return false
			}
			if o := old[j]; o.Kind == in.Kind && o.Micro == in.Micro && o.Stage == in.Stage {
				oi = j
			}
		}
		if oi < 0 {
			return false
		}
		for j := lo; j < hi; j++ {
			b := list[j]
			if !kindIn(b.Kind, consumers) || b.Micro != in.Micro || b.Stage != in.Stage {
				continue
			}
			oj := -1
			for k := lo; k < hi; k++ {
				if o := old[k]; o.Kind == b.Kind && o.Micro == b.Micro && o.Stage == b.Stage {
					if oj >= 0 {
						return false
					}
					oj = k
				}
			}
			if oj < 0 || (oi < oj) != (i < j) {
				return false
			}
		}
	}
	return true
}

// kindIn reports whether k is one of the given kinds.
func kindIn(k pipeline.Kind, kinds []pipeline.Kind) bool {
	for _, c := range kinds {
		if k == c {
			return true
		}
	}
	return false
}

// rebuildWindowed rebuilds device d's metadata when the new list differs from
// the cached one only by a permutation window [lo, hi): metadata outside the
// window is copied from the retiring entry (positions and content match),
// window metadata is re-derived. Durations and peer sets are multiset
// properties and carry over; the busy total and the memory walk are
// recomputed in the new list order, since float addition is order-sensitive.
// The resulting cache entry is bit-identical to a full rebuild's; matches are
// re-resolved by refresh like on any other changed device.
func (m *Simulator) rebuildWindowed(s *pipeline.Schedule, e *cost.Estimator, d int, list []pipeline.Instr, lo, hi int) {
	ds := &m.devs[d]
	ds.swapPrev() // the outgoing entry becomes the revert snapshot
	ds.list = list
	n := len(list)
	if cap(ds.metas) >= n {
		ds.metas = ds.metas[:n]
	} else {
		ds.metas = make([]meta, n)
	}
	copy(ds.metas[:lo], ds.prevMetas[:lo])
	copy(ds.metas[hi:], ds.prevMetas[hi:])
	// Rebuild the comm index list: outside the window the indices are
	// unchanged; inside it the window fill discovers them in list order.
	ds.comm = ds.comm[:0]
	for _, ci := range ds.prevComm {
		if int(ci) >= lo {
			break
		}
		ds.comm = append(ds.comm, ci)
	}
	for i := lo; i < hi; i++ {
		if m.fillMeta(s, e, ds, d, i, list[i]) {
			ds.comm = append(ds.comm, int32(i))
		}
	}
	for _, ci := range ds.prevComm {
		if int(ci) >= hi {
			ds.comm = append(ds.comm, ci)
		}
	}
	// Keys outside the window were never dropped (refresh skips the stale-
	// key scan for permutation windows) and their indices are unchanged;
	// fillMeta re-registered the moved window keys above.
	ds.peers = append(ds.peers[:0], ds.prevPeers...)
	// The busy total is a sum over the same durations, but float addition is
	// order-sensitive and the full rebuild accumulates in list order — re-sum
	// in the new order so the cached value stays bit-identical to a full
	// rebuild's.
	busy := 0.0
	for i := range ds.metas {
		if mt := &ds.metas[i]; mt.compute {
			busy += mt.dur
		}
	}
	ds.busy = busy

	// Memory: walk the full list. In exact arithmetic the level after a
	// permutation window is unchanged (per-instruction memory deltas depend
	// on content and on bitmap state determined by the multiset of earlier
	// instructions) and the suffix peak could splice from a cached
	// suffix-maximum array, but the level is a float accumulator: permuting
	// the window perturbs the low mantissa bits entering the suffix, and a
	// cached suffix maximum embeds the old bits. Re-walk the suffix so the
	// peak stays bit-identical to a full rebuild's — the same reason busy
	// re-sums above.
	m.mem.rebind(e, s.Micros, s.NumStages(), ds.static, list)
	for _, in := range list {
		m.mem.Step(in)
	}
	ds.peak = m.mem.Peak()
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
	nLinks := m.nLinks
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
	m.convIdx = growInt(m.convIdx, D)
	for d := 0; d < D; d++ {
		m.inQueue[d] = true
		m.queue = append(m.queue, int32(d))
		m.convIdx[d] = noConverge
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
	base := m.last.endT[d] // snapshot completion clocks (reads)
	out := m.outT[d]       // completion clocks feeding the next delta run
	i := m.pc[d]
	clock := m.clock[d]
	// Snapshot comparison state for the per-send convergence tracking; only
	// consulted during delta replays.
	var oldL []pipeline.Instr
	hz := 0
	if m.inDelta {
		oldL = m.last.lists[d]
		hz = m.last.horizon[d]
	}
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
				if m.inDelta {
					// A replayed send whose completion bit-equals the
					// snapshot's (same instruction, trusted entry) delivers a
					// snapshot-identical arrival; track the last one that did
					// not, so receivers' convergence thresholds can relax once
					// this device resolves. The clock compare goes first: it
					// is one instruction, and the field-by-field Instr equality
					// then only runs for sends that landed on the snapshot's
					// clock.
					if !(i < hz && i < len(oldL) && clock == base[i] && oldL[i] == list[i]) {
						m.lastDiffSend[d] = i
					}
				}
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
				clock = max64(start+e.LaunchOverhead, msg.arrive)
			}
		}
		if !opt.NoTimeline {
			res.Timeline[d] = append(res.Timeline[d], Span{Instr: list[i], Start: start, End: clock})
		}
		if i >= m.convIdx[d] && clock == base[i] {
			// The replayed clock re-converged onto the snapshot and every
			// remaining input of this device is snapshot-identical: the rest
			// of the suffix would replay bit-identically, so splice it.
			clock = m.spliceSuffix(d, i)
			i = len(list)
			break
		}
		out[i] = clock
		i++
	}
blocked:
	m.pc[d], m.clock[d] = i, clock
	return nil
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
