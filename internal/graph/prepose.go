package graph

import (
	"context"
	"errors"

	"mario/internal/pipeline"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// Engines bundles the reusable state an Optimize or SplitBackward run
// evaluates its candidates on: Main is the simulator, feas the feasibility
// pre-screen's scratch. Reusing the simulator across rounds is what keeps
// candidate evaluation cheap — each candidate shares all but a few lists with
// the current schedule, so only those devices' metadata is rebuilt.
//
// A bundle belongs to whoever created it, for as long as they like: a search
// makes one per goroutine and passes it to every run through Options.Engines,
// running its own direct simulations on Main in between. The owner reads
// Main.Sims and Main.Rebuilds when it is done. Like the simulator in it, a
// bundle serves one run at a time.
type Engines struct {
	Main *sim.Simulator
	feas feasScratch
}

// NewEngines returns an empty bundle.
func NewEngines() *Engines {
	return &Engines{Main: &sim.Simulator{}}
}

// Report adds the bundle's simulation and rebuild counts to the registry;
// whoever created the bundle calls it once, when done with it.
func (e *Engines) Report(m *telemetry.SearchMetrics) {
	r := e.Main.Rebuilds
	m.AddSims(e.Main.Sims)
	m.AddSimRebuilds(r.Unchanged, r.Swap, r.Full)
}

// feasScratch is the reusable state of Engines.feasible, per FIFO link of the
// placement's resolved view and per device.
type feasScratch struct {
	sendKeys [][]pipeline.Key // per link: keys of its sends, in push order
	recvOrd  []int32          // per link: receives popped so far
	sentByPC []int32          // per link: sends executed so far
	recvWait []int32          // per link: device blocked on it, -1 none
	pc       []int32          // per device: next instruction index
	queue    []int32
	inQueue  []bool
}

// feasible reports whether every instruction of the schedule can execute
// under the eager FIFO link semantics the simulator implements: per link
// (sender, receiver, channel) messages are delivered in the sender's list
// order and popped in the receiver's list order, with each pop requiring the
// matching key. Sends never block, so executability — including the
// deadlock/mismatch verdict — is independent of timing, and this untimed
// check is exactly "Simulate would not return ErrDeadlock/ErrCommMismatch".
// The prepose driver screens candidates with it before paying for a
// simulation: illegal candidates are skipped either way, so the optimization
// result is unchanged.
func (e *Engines) feasible(s *pipeline.Schedule) bool {
	D := s.NumDevices()
	// The links are the resolved view's — the ones the simulator's FIFOs run
	// on — so the two cannot disagree about which messages share a queue.
	res := s.Resolved()
	nl := res.NumLinks()
	f := &e.feas
	f.sendKeys = growOuter(f.sendKeys, nl)
	f.recvOrd = growI32(f.recvOrd, nl)
	f.sentByPC = growI32(f.sentByPC, nl)
	f.recvWait = growI32(f.recvWait, nl)
	f.pc = growI32(f.pc, D)
	f.inQueue = growBools(f.inQueue, D)
	for l := 0; l < nl; l++ {
		f.sendKeys[l] = f.sendKeys[l][:0]
		f.recvOrd[l] = 0
		f.sentByPC[l] = 0
		f.recvWait[l] = -1
	}
	// Gather each link's send-key sequence (the order messages arrive in).
	for d := 0; d < D; d++ {
		for _, in := range s.Lists[d] {
			if in.Kind != pipeline.SendAct && in.Kind != pipeline.SendGrad {
				continue
			}
			l := res.Link(in)
			if l < 0 {
				return false // dangling peer; Simulate would reject it too
			}
			f.sendKeys[l] = append(f.sendKeys[l], in.Key())
		}
	}
	// Untimed execution: run every device until it blocks on an undelivered
	// message; a send wakes the link's waiting receiver. All-executed means
	// feasible; a blocked or mispaired pop means Simulate errors.
	f.queue = f.queue[:0]
	for d := 0; d < D; d++ {
		f.pc[d] = 0
		f.inQueue[d] = true
		f.queue = append(f.queue, int32(d))
	}
	done := 0
	for head := 0; head < len(f.queue); head++ {
		d := int(f.queue[head])
		f.inQueue[d] = false
		list := s.Lists[d]
		i := int(f.pc[d])
		blocked := false
		for i < len(list) && !blocked {
			in := list[i]
			switch in.Kind {
			case pipeline.SendAct, pipeline.SendGrad:
				l := res.Link(in)
				f.sentByPC[l]++
				if w := f.recvWait[l]; w >= 0 {
					f.recvWait[l] = -1
					if !f.inQueue[w] {
						f.inQueue[w] = true
						f.queue = append(f.queue, w)
					}
				}
			case pipeline.RecvAct, pipeline.RecvGrad:
				l := res.Link(in)
				if l < 0 {
					return false
				}
				k := f.recvOrd[l]
				if k >= f.sentByPC[l] {
					// Not delivered yet; block here until the sender pushes.
					f.recvWait[l] = int32(d)
					blocked = true
					continue
				}
				sk := f.sendKeys[l][k]
				send := pipeline.Instr{Kind: sk.Kind, Micro: sk.Micro, Part: sk.Part, Stage: sk.Stage}
				if s.MatchKey(send) != in.Key() {
					return false // mispaired pop: ErrCommMismatch
				}
				f.recvOrd[l] = k + 1
			}
			i++
		}
		f.pc[d] = int32(i)
		if !blocked {
			done++
		}
	}
	return done == D
}

func growOuter(s [][]pipeline.Key, n int) [][]pipeline.Key {
	if cap(s) >= n {
		return s[:n]
	}
	grown := make([][]pipeline.Key, n)
	copy(grown, s)
	return grown
}

func growI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

func growBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

// A forward group is the contiguous [RecvAct?, CkptForward, SendAct?] run of
// one micro-batch on one device. Pass 4 moves such groups from the steady
// phase into the leading bubble region ("prepose the checkpointed forward
// instructions to the earliest pipeline bubbles").
type fwGroup struct {
	start, end int // half-open index range in the device list
	cfwIdx     int
	saIdx      int // index of the SendAct inside [start,end) or -1
}

// findBoundary returns the index of the first backward-like compute
// instruction (Backward or Recompute) on the list; preposed groups are
// inserted immediately before it. Returns -1 when the device has no
// backward region (nothing to prepose past).
func findBoundary(list []pipeline.Instr) int {
	for i, in := range list {
		if in.Kind == pipeline.Backward || in.Kind == pipeline.Recompute {
			return i
		}
	}
	return -1
}

// nextGroupAfter locates the first forward group starting at or after idx.
func nextGroupAfter(list []pipeline.Instr, idx int) (fwGroup, bool) {
	for i := idx; i < len(list); i++ {
		if list[i].Kind != pipeline.CkptForward {
			continue
		}
		g := fwGroup{start: i, end: i + 1, cfwIdx: i, saIdx: -1}
		if i > 0 && list[i-1].Kind == pipeline.RecvAct &&
			list[i-1].Micro == list[i].Micro && list[i-1].Stage == list[i].Stage {
			g.start = i - 1
		}
		if i+1 < len(list) && list[i+1].Kind == pipeline.SendAct &&
			list[i+1].Micro == list[i].Micro && list[i+1].Stage == list[i].Stage {
			g.end = i + 2
			g.saIdx = i + 1
		}
		return g, true
	}
	return fwGroup{}, false
}

// consumerPreposed reports whether the consumer of the (micro, stage)
// activation executes its forward inside its own leading forward region —
// §5.1 pass 4's "CFW in the next device is also preposed" test, which
// decides whether the SendAct may travel with the CkptForward or must stay
// buffered in place.
func consumerPreposed(s *pipeline.Schedule, micro, part, stage int) bool {
	if stage+1 >= s.NumStages() {
		return true // no consumer; nothing constrains the send
	}
	sa := pipeline.Instr{Kind: pipeline.SendAct, Micro: micro, Part: part, Stage: stage}
	dev := s.PeerDevice(s.Placement.Device(part, stage), sa)
	list := s.Lists[dev]
	b := findBoundary(list)
	if b < 0 {
		return true
	}
	match := s.MatchKey(sa)
	for i := 0; i < b; i++ {
		in := list[i]
		if in.Kind == pipeline.RecvAct && in.Key() == match {
			return true
		}
	}
	return false
}

// canPrepose reports whether a device list has a steady-phase forward group
// left to move — the cheap pre-check that avoids cloning a schedule for a
// device that cannot produce a candidate.
func canPrepose(list []pipeline.Instr) bool {
	b := findBoundary(list)
	if b < 0 {
		return false
	}
	_, ok := nextGroupAfter(list, b)
	return ok
}

// preposeReorders reports whether moving device d's next steady-phase
// forward group would reorder the device's sends or receives on some FIFO
// link relative to same-link communication it crosses. A single-device
// candidate with such a reorder is guaranteed to deadlock or comm-mismatch —
// the peers' pop and push orders are unchanged, so the first affected pop
// meets the wrong key — and the per-device scan skips simulating it. The
// composite candidate must not use this test: it rewrites both endpoints of
// a link, and matching reorders on the two sides can cancel out.
func preposeReorders(s *pipeline.Schedule, d int) bool {
	list := s.Lists[d]
	b := findBoundary(list)
	if b < 0 {
		return false
	}
	g, ok := nextGroupAfter(list, b)
	if !ok {
		return false
	}
	cfw := list[g.cfwIdx]
	moveSA := g.saIdx >= 0 && consumerPreposed(s, cfw.Micro, cfw.Part, cfw.Stage)
	hasRA := g.start < g.cfwIdx
	for i := b; i < g.start; i++ {
		in := list[i]
		switch in.Kind {
		case pipeline.RecvAct:
			if hasRA && s.PeerDevice(d, in) == s.PeerDevice(d, list[g.start]) {
				return true
			}
		case pipeline.SendAct:
			if moveSA && s.PeerDevice(d, in) == s.PeerDevice(d, list[g.saIdx]) {
				return true
			}
		}
	}
	return false
}

// preposeBlocked reports whether the single-device prepose candidate for
// device d is guaranteed to deadlock on a two-device wait cycle: the moved
// group's RecvAct blocks d at the insertion point, while the producing peer
// sits behind a RecvGrad whose matching SendGrad on d is ordered after that
// insertion point (every SendGrad follows its Backward, hence the boundary).
// Neither device can advance, so the simulation is skipped. Cycles through
// third devices are left for the simulator to detect.
func preposeBlocked(s *pipeline.Schedule, d int) bool {
	list := s.Lists[d]
	b := findBoundary(list)
	if b < 0 {
		return false
	}
	g, ok := nextGroupAfter(list, b)
	if !ok || g.start == g.cfwIdx {
		return false // no RecvAct travels with the group
	}
	ra := list[g.start]
	p := s.PeerDevice(d, ra)
	match := s.MatchKey(ra)
	for _, in := range s.Lists[p] {
		if in.Key() == match {
			return false // producer send reachable before any grad wait on d
		}
		if in.Kind != pipeline.RecvGrad || s.PeerDevice(p, in) != d {
			continue
		}
		// The peer waits for a gradient from d. Its SendGrad on d follows
		// d's first backward, i.e. lands after the moved group's insertion
		// point — unless it was somehow already in the forward prefix.
		sg := s.MatchKey(in)
		early := false
		for i := 0; i < b; i++ {
			if list[i].Key() == sg {
				early = true
				break
			}
		}
		if !early {
			return true
		}
	}
	return false
}

// preposeDevice builds a candidate schedule with the next steady-phase
// forward group of device d moved to the leading bubble region. It returns
// false when the device has no group to prepose.
func preposeDevice(s *pipeline.Schedule, d int) (*pipeline.Schedule, bool) {
	if !canPrepose(s.Lists[d]) {
		return nil, false
	}
	c := s.Clone()
	preposeList(c, d)
	return c, true
}

// preposeList rewrites device d of c in place, moving its next steady-phase
// forward group to the leading bubble region. The caller owns c (a private
// clone of the candidate base); the rewritten list is a fresh allocation, as
// the simulators' identity-keyed caches require. Returns false when the device
// has no group to move.
func preposeList(c *pipeline.Schedule, d int) bool {
	list := c.Lists[d]
	b := findBoundary(list)
	if b < 0 {
		return false
	}
	g, ok := nextGroupAfter(list, b)
	if !ok {
		return false
	}
	cfw := list[g.cfwIdx]
	moveSA := g.saIdx >= 0 && consumerPreposed(c, cfw.Micro, cfw.Part, cfw.Stage)

	nl := make([]pipeline.Instr, 0, len(list))
	var movedArr [3]pipeline.Instr
	moved := movedArr[:0]
	for i := g.start; i < g.end; i++ {
		if i == g.saIdx && !moveSA {
			continue
		}
		moved = append(moved, list[i])
	}
	for i := 0; i < len(list); i++ {
		if i == b {
			nl = append(nl, moved...)
		}
		if i >= g.start && i < g.end {
			if i == g.saIdx && !moveSA {
				// SendAct stays put, reading from the staging buffer
				// (§5.1 pass 4 scenario 2).
				sa := list[i]
				sa.Buffered = true
				nl = append(nl, sa)
			}
			continue
		}
		nl = append(nl, list[i])
	}
	c.SetList(d, nl)
	return true
}

// promoteBufferedSends builds a candidate where every Buffered SendAct whose
// consumer has since been preposed is moved back next to its CkptForward.
// Returns false when nothing was promotable.
func promoteBufferedSends(s *pipeline.Schedule) (*pipeline.Schedule, bool) {
	c := s.Clone()
	changed := false
	for d := range c.Lists {
		list := c.Lists[d]
		mutable := false
		for i := 0; i < len(list); i++ {
			in := list[i]
			if in.Kind != pipeline.SendAct || !in.Buffered {
				continue
			}
			if !consumerPreposed(c, in.Micro, in.Part, in.Stage) {
				continue
			}
			// Find the producing CkptForward and move the send right after it.
			for j := 0; j < i; j++ {
				p := list[j]
				if p.Kind == pipeline.CkptForward && p.Micro == in.Micro && p.Stage == in.Stage {
					if !mutable {
						list = c.MutableList(d)
						mutable = true
					}
					in.Buffered = false
					copy(list[j+2:i+1], list[j+1:i])
					list[j+1] = in
					changed = true
					break
				}
			}
		}
	}
	return c, changed
}

// simCandidate evaluates one candidate on the given engine. It returns a nil
// result (and nil error) when the candidate is illegal — deadlocked,
// comm-mismatched, or over the memory limit — and must simply be skipped.
func simCandidate(eng *sim.Simulator, c *pipeline.Schedule, opt Options) (*sim.Result, error) {
	r, err := eng.Simulate(c, opt.Estimator, opt.Sim)
	if err != nil {
		if errors.Is(err, sim.ErrCommMismatch) || errors.Is(err, sim.ErrDeadlock) {
			return nil, nil
		}
		return nil, err
	}
	if opt.Sim.MemLimit > 0 && r.OOM {
		return nil, nil
	}
	return r, nil
}

// preposeRound evaluates one greedy round of pass 4: preposing one group on
// each single device, preposing one group on all devices at once (to enable
// cascaded moves none of which helps alone), and promoting buffered sends.
// The best strictly-improving, non-OOM candidate wins. budget bounds the
// number of group moves this round may perform (negative = unlimited); the
// round reports how many it used.
//
// ctx is checked before each candidate simulation; a cancelled round returns
// ctx's error.
func preposeRound(ctx context.Context, cur *pipeline.Schedule, best *sim.Result, opt Options, budget int, eng *Engines) (*pipeline.Schedule, *sim.Result, int, error) {
	type cand struct {
		s     *pipeline.Schedule
		r     *sim.Result
		moves int
	}
	var winner *cand

	const eps = 1e-12
	consider := func(c *pipeline.Schedule, r *sim.Result, moves int) {
		if r != nil && r.Total < best.Total-eps && (winner == nil || r.Total < winner.r.Total) {
			winner = &cand{s: c, r: r, moves: moves}
		}
	}

	// Candidate order matters on exact makespan ties only: the earlier
	// candidate wins them. The buffered-send promotion goes first.
	if c, ok := promoteBufferedSends(cur); ok {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		r, err := simCandidate(eng.Main, c, opt)
		if err != nil {
			return nil, nil, 0, err
		}
		consider(c, r, 0)
	}
	// Composite candidate — one prepose on every device — because the
	// cascaded move is both the usual winner and a single simulation. Only
	// when it fails to improve do we pay for the per-device scan. One clone
	// serves all the device rewrites; it is created lazily so a round with no
	// movable groups allocates nothing.
	var comp *pipeline.Schedule
	moves := 0
	for d := 0; d < cur.NumDevices(); d++ {
		if budget >= 0 && moves >= budget {
			break
		}
		if comp == nil {
			if !canPrepose(cur.Lists[d]) {
				continue
			}
			comp = cur.Clone()
		}
		if preposeList(comp, d) {
			moves++
		}
	}
	if moves > 0 && eng.feasible(comp) {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		r, err := simCandidate(eng.Main, comp, opt)
		if err != nil {
			return nil, nil, 0, err
		}
		consider(comp, r, moves)
	}
	if winner == nil && (budget < 0 || budget >= 1) {
		for d := 0; d < cur.NumDevices(); d++ {
			if !canPrepose(cur.Lists[d]) || preposeReorders(cur, d) || preposeBlocked(cur, d) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, nil, 0, err
			}
			c := cur.Clone()
			preposeList(c, d)
			r, err := simCandidate(eng.Main, c, opt)
			if err != nil {
				return nil, nil, 0, err
			}
			consider(c, r, 1)
		}
	}
	if winner == nil {
		return cur, best, 0, nil
	}
	return winner.s, winner.r, winner.moves, nil
}
