package graph

import (
	"context"
	"errors"

	"mario/internal/pipeline"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// Engines bundles the reusable state an Optimize or SplitBackward run
// evaluates its candidates on: Main is the simulator, whose deadlock and
// mismatch errors are the one legality verdict (simCandidate), and the
// incumbent's critical chain the prepose scan filters against. The simulator
// is a buffer, not a cache — every simulation derives its metadata from the
// candidate it is given — so reusing a bundle across rounds and runs saves
// allocations and nothing else.
//
// A bundle belongs to whoever created it, for as long as they like: a search
// makes one per goroutine and passes it to every run through Options.Engines,
// running its own direct simulations on Main in between. The owner reads
// Main.Sims, or has Report publish it, when it is done. Like the simulator in
// it, a bundle serves one run at a time.
type Engines struct {
	Main *sim.Simulator
	// chain is the critical chain of the run's incumbent, walked off Main
	// right after the simulation that produced it — the engine holds one run
	// at a time, and a result's encoded form has no room for it. next is the
	// chain of a round's winner so far; the round's end swaps it in.
	chain, next []sim.Segment
	// scan counts the per-device scan's single-device candidates by verdict:
	// filtered left the incumbent's critical chain whole (offChain), illegal
	// deadlocked or mispaired a pop in its simulation, simulated is the rest.
	scan struct{ filtered, illegal, simulated int64 }
	// rounds counts the prepose rounds the bundle's runs completed.
	rounds int64
}

// NewEngines returns an empty bundle.
func NewEngines() *Engines {
	return &Engines{Main: &sim.Simulator{}}
}

// Report adds the bundle's simulation, prepose-round and scan counts to the
// registry; whoever created the bundle calls it once, when done with it.
func (e *Engines) Report(m *telemetry.SearchMetrics) {
	m.AddSims(e.Main.Sims)
	m.AddGraphRounds(e.rounds)
	m.AddScanCandidates(e.scan.filtered, e.scan.illegal, e.scan.simulated)
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

// A prepose is pass 4's move on one device list: the forward group g leaves
// the steady phase and lands immediately before list[b], the first
// backward-like instruction. Its SendAct travels along when moveSA is set and
// otherwise stays where it is, reading from the staging buffer.
type prepose struct {
	b      int
	g      fwGroup
	moveSA bool
}

// nextPrepose returns the move for device d's first forward group at or after
// the boundary, false when the device has none.
func nextPrepose(s *pipeline.Schedule, d int) (prepose, bool) {
	list := s.Lists[d]
	b := findBoundary(list)
	if b < 0 {
		return prepose{}, false
	}
	for i := b; i < len(list); i++ {
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
		moveSA := g.saIdx >= 0 && consumerPreposed(s, list[i].Micro, list[i].Part, list[i].Stage)
		return prepose{b: b, g: g, moveSA: moveSA}, true
	}
	return prepose{}, false
}

// movedEnd is the end of the instructions that travel: [g.start, movedEnd).
func (p prepose) movedEnd() int {
	if p.g.saIdx >= 0 && !p.moveSA {
		return p.g.saIdx
	}
	return p.g.end
}

// apply rewrites device d of c; p is nextPrepose(c, d). The caller owns c (a
// private clone of the candidate base), whose old list for d is still the
// base's, so the rewritten list is a fresh allocation.
func (p prepose) apply(c *pipeline.Schedule, d int) {
	list := c.Lists[d]
	mEnd := p.movedEnd()
	nl := make([]pipeline.Instr, 0, len(list))
	nl = append(nl, list[:p.b]...)
	nl = append(nl, list[p.g.start:mEnd]...)
	nl = append(nl, list[p.b:p.g.start]...)
	nl = append(nl, list[mEnd:]...)
	if mEnd < p.g.end {
		// The SendAct stays put, reading from the staging buffer (§5.1 pass 4
		// scenario 2); every index from mEnd on is unchanged.
		nl[mEnd].Buffered = true
	}
	c.SetList(d, nl)
}

// offChain reports whether the single-device candidate that applies p to
// device d cannot finish before the incumbent, whose critical chain e holds.
// The move reorders one window of one list — [p.b, g.start) slides behind the
// moved [g.start, movedEnd) — so a chain segment [u, v] on d keeps every
// instruction it had between its endpoints unless it enters the window's head
// and leaves through the moved group, or enters ahead of the moved group and
// leaves at or behind it. When no segment does, each one is a subset of the
// candidate's list-order run between the same two instructions, communication
// edges are matched by key and keep their latency, and the candidate's
// makespan is at least the chain's length, the incumbent's Total: the strict
// improvement test refuses it whether it is legal, OOM or neither (DESIGN §5).
func (e *Engines) offChain(d int, p prepose) bool {
	gs, mEnd := p.g.start, p.movedEnd()
	for _, sg := range e.chain {
		if int(sg.Dev) != d {
			continue
		}
		u, v := int(sg.Lo), int(sg.Hi)
		if u < p.b && gs <= v && v < mEnd || p.b <= u && u < gs && gs <= v {
			return false
		}
	}
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

// simCandidate evaluates one candidate on the given engine and is the one
// definition of an unusable candidate: a deadlock or a mismatched pop makes it
// illegal, a peak over opt.Sim.MemLimit makes it OOM, and either way the
// result is nil and the caller skips it. illegal tells the two apart; any
// other simulation error passes through.
func simCandidate(eng *sim.Simulator, c *pipeline.Schedule, opt Options) (r *sim.Result, illegal bool, err error) {
	r, err = eng.Simulate(c, opt.Estimator, opt.Sim)
	if err != nil {
		if errors.Is(err, sim.ErrCommMismatch) || errors.Is(err, sim.ErrDeadlock) {
			return nil, true, nil
		}
		return nil, false, err
	}
	if opt.Sim.MemLimit > 0 && r.OOM {
		return nil, false, nil
	}
	return r, false, nil
}

// improveEps is how much smaller a candidate's makespan must be to count as
// an improvement. offChain leans on it: a filtered candidate's makespan is at
// least the incumbent's up to the re-association of one chain's worth of float
// additions, orders of magnitude below this.
const improveEps = 1e-12

// preposeRound evaluates one greedy round of pass 4: preposing one group on
// each single device, preposing one group on all devices at once (to enable
// cascaded moves none of which helps alone), and promoting buffered sends.
// The best strictly-improving, non-OOM candidate wins, and its critical chain
// becomes eng's. The round reports how many group moves its winner made.
//
// ctx is checked before each candidate simulation; a cancelled round returns
// ctx's error.
func preposeRound(ctx context.Context, cur *pipeline.Schedule, best *sim.Result, opt Options, eng *Engines) (*pipeline.Schedule, *sim.Result, int, error) {
	type cand struct {
		s     *pipeline.Schedule
		r     *sim.Result
		moves int
	}
	var winner *cand

	// consider runs right after c's simulation, while the engine still holds
	// that run.
	consider := func(c *pipeline.Schedule, r *sim.Result, moves int) {
		if r != nil && r.Total < best.Total-improveEps && (winner == nil || r.Total < winner.r.Total) {
			winner = &cand{s: c, r: r, moves: moves}
			eng.next = eng.Main.CriticalChain(eng.next[:0])
		}
	}

	// Candidate order matters on exact makespan ties only: the earlier
	// candidate wins them. The buffered-send promotion goes first.
	if c, ok := promoteBufferedSends(cur); ok {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		r, _, err := simCandidate(eng.Main, c, opt)
		if err != nil {
			return nil, nil, 0, err
		}
		consider(c, r, 0)
	}
	// Composite candidate — one prepose on every device — because the
	// cascaded move is both the usual winner and a single simulation. Only
	// when it fails to improve do we pay for the per-device scan. One clone
	// serves all the device rewrites; it is created lazily, at the first
	// device cur has a move for (the clone, untouched until then, has the
	// same one), so a round with no movable groups allocates nothing.
	var comp *pipeline.Schedule
	moves := 0
	for d := 0; d < cur.NumDevices(); d++ {
		if comp == nil {
			if _, ok := nextPrepose(cur, d); !ok {
				continue
			}
			comp = cur.Clone()
		}
		if p, ok := nextPrepose(comp, d); ok {
			p.apply(comp, d)
			moves++
		}
	}
	if moves > 0 {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		r, _, err := simCandidate(eng.Main, comp, opt)
		if err != nil {
			return nil, nil, 0, err
		}
		consider(comp, r, moves)
	}
	if winner == nil {
		// The per-device scan refuses a candidate that leaves the incumbent's
		// critical chain whole before cloning it, and clones and simulates
		// the rest.
		for d := 0; d < cur.NumDevices(); d++ {
			p, ok := nextPrepose(cur, d)
			if !ok {
				continue
			}
			if eng.offChain(d, p) {
				eng.scan.filtered++
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, nil, 0, err
			}
			c := cur.Clone()
			p.apply(c, d)
			r, illegal, err := simCandidate(eng.Main, c, opt)
			if err != nil {
				return nil, nil, 0, err
			}
			if illegal {
				eng.scan.illegal++
				continue
			}
			eng.scan.simulated++
			consider(c, r, 1)
		}
	}
	if winner == nil {
		return cur, best, 0, nil
	}
	eng.chain, eng.next = eng.next, eng.chain
	return winner.s, winner.r, winner.moves, nil
}
