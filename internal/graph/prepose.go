package graph

import (
	"context"
	"errors"
	"slices"

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
	// promoted and composite log the in-place moves of a round's
	// buffered-send promotion and composite candidate, so the round can take
	// them back.
	promoted  []promotion
	composite []placed
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

// Reset zeroes the bundle's counts — Main.Sims, the prepose rounds and the
// scan verdicts — and drops its hold on the last schedule it simulated,
// keeping every buffer's capacity: a reset bundle is a fresh one that
// allocates less. An owner that recycles a bundle reports it first.
func (e *Engines) Reset() {
	e.Main.Reset()
	e.chain, e.next = e.chain[:0], e.next[:0]
	e.promoted, e.composite = e.promoted[:0], e.composite[:0]
	e.scan.filtered, e.scan.illegal, e.scan.simulated = 0, 0, 0
	e.rounds = 0
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

// consumerPreposed reports whether the consumer of the activation that in
// (a CkptForward or its SendAct) produces executes its forward inside its own
// leading forward region — §5.1 pass 4's "CFW in the next device is also
// preposed" test, which decides whether the SendAct may travel with the
// CkptForward or must stay buffered in place.
func consumerPreposed(s *pipeline.Schedule, in pipeline.Instr) bool {
	if int(in.Stage)+1 >= s.NumStages() {
		return true // no consumer; nothing constrains the send
	}
	sa := pipeline.Instr{Kind: pipeline.SendAct, Micro: in.Micro, Part: in.Part, Stage: in.Stage}
	dev := s.PeerDevice(s.Placement.Device(int(in.Part), int(in.Stage)), sa)
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

// rotate turns w into w[k:] followed by w[:k], in place. Every move of pass 4
// is such a rotation of one window of one list.
func rotate(w []pipeline.Instr, k int) {
	slices.Reverse(w[:k])
	slices.Reverse(w[k:])
	slices.Reverse(w)
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
		moveSA := g.saIdx >= 0 && consumerPreposed(s, list[i])
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

// apply makes the move on device d of s, in place: list[b:movedEnd) is
// rotated so the travelling instructions come first, and a SendAct left
// behind is marked Buffered (§5.1 pass 4 scenario 2); every index from
// movedEnd on keeps its instruction. p is nextPrepose(s, d). apply returns the
// Buffered flag it overwrote, which undo takes back.
func (p prepose) apply(s *pipeline.Schedule, d int) (buffered bool) {
	list := s.Lists[d]
	mEnd := p.movedEnd()
	rotate(list[p.b:mEnd], p.g.start-p.b)
	if mEnd < p.g.end {
		buffered = list[mEnd].Buffered
		list[mEnd].Buffered = true
	}
	return buffered
}

// undo takes back apply(s, d), which returned buffered, restoring device d's
// list instruction for instruction.
func (p prepose) undo(s *pipeline.Schedule, d int, buffered bool) {
	list := s.Lists[d]
	mEnd := p.movedEnd()
	if mEnd < p.g.end {
		list[mEnd].Buffered = buffered
	}
	rotate(list[p.b:mEnd], mEnd-p.g.start)
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

// A promotion moved the Buffered SendAct at list[i] of device d back to
// list[j+1], right behind its CkptForward at list[j], and cleared its flag.
type promotion struct{ d, j, i int }

// promoteBufferedSends moves, in place, every Buffered SendAct of s whose
// consumer has since been preposed back next to its CkptForward, appending
// each move to log in the order made, and returns the extended log.
func promoteBufferedSends(s *pipeline.Schedule, log []promotion) []promotion {
	for d := range s.Lists {
		list := s.Lists[d]
		for i := 0; i < len(list); i++ {
			in := list[i]
			if in.Kind != pipeline.SendAct || !in.Buffered || !consumerPreposed(s, in) {
				continue
			}
			// Find the producing CkptForward and move the send right after it.
			for j := 0; j < i; j++ {
				p := list[j]
				if p.Kind == pipeline.CkptForward && p.Micro == in.Micro && p.Stage == in.Stage {
					rotate(list[j+1:i+1], i-j-1)
					list[j+1].Buffered = false
					log = append(log, promotion{d: d, j: j, i: i})
					break
				}
			}
		}
	}
	return log
}

// undoPromotions takes back the moves of log, latest first.
func undoPromotions(s *pipeline.Schedule, log []promotion) {
	for k := len(log) - 1; k >= 0; k-- {
		m := log[k]
		list := s.Lists[m.d]
		list[m.j+1].Buffered = true
		rotate(list[m.j+1:m.i+1], 1)
	}
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

// A placed prepose is one move of the composite candidate, with the flag its
// apply overwrote.
type placed struct {
	d        int
	p        prepose
	buffered bool
}

// The candidates of a round, in the order it simulates them.
const (
	candPromote = iota
	candComposite
	candScan
)

// preposeRound evaluates one greedy round of pass 4 on cur: promoting buffered
// sends, preposing one group on all devices at once (to enable cascaded moves
// none of which helps alone), and preposing one group on each single device.
// Each candidate is made by editing cur in place, simulated, and undone; the
// best strictly-improving, non-OOM candidate wins, is made again, and its
// critical chain becomes eng's. The round returns the winner's result and how
// many group moves it made — best and 0, with cur as it was, when nothing
// improves.
//
// ctx is checked before each candidate simulation; a cancelled round returns
// ctx's error, and so does any simulation error, with cur part-way through an
// edit: the caller discards it.
func preposeRound(ctx context.Context, cur *pipeline.Schedule, best *sim.Result, opt Options, eng *Engines) (*sim.Result, int, error) {
	var winner struct {
		r     *sim.Result
		cand  int
		moves int
		d     int
		p     prepose
	}

	// consider runs right after a candidate's simulation, while the engine
	// still holds that run.
	consider := func(r *sim.Result, cand, moves int) bool {
		if r != nil && r.Total < best.Total-improveEps && (winner.r == nil || r.Total < winner.r.Total) {
			winner.r, winner.cand, winner.moves = r, cand, moves
			eng.next = eng.Main.CriticalChain(eng.next[:0])
			return true
		}
		return false
	}

	// Candidate order matters on exact makespan ties only: the earlier
	// candidate wins them. The buffered-send promotion goes first.
	eng.promoted = promoteBufferedSends(cur, eng.promoted[:0])
	if len(eng.promoted) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		r, _, err := simCandidate(eng.Main, cur, opt)
		if err != nil {
			return nil, 0, err
		}
		consider(r, candPromote, 0)
		undoPromotions(cur, eng.promoted)
	}
	// Composite candidate — one prepose on every device — because the
	// cascaded move is both the usual winner and a single simulation. Each
	// device's move is found on cur as the earlier devices' moves left it.
	// Only when it fails to improve do we pay for the per-device scan.
	comp := eng.composite[:0]
	for d := 0; d < cur.NumDevices(); d++ {
		if p, ok := nextPrepose(cur, d); ok {
			comp = append(comp, placed{d: d, p: p, buffered: p.apply(cur, d)})
		}
	}
	eng.composite = comp
	if len(comp) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		r, _, err := simCandidate(eng.Main, cur, opt)
		if err != nil {
			return nil, 0, err
		}
		if !consider(r, candComposite, len(comp)) {
			for k := len(comp) - 1; k >= 0; k-- {
				comp[k].p.undo(cur, comp[k].d, comp[k].buffered)
			}
		}
	}
	if winner.r == nil {
		// The per-device scan refuses a candidate that leaves the incumbent's
		// critical chain whole before making it, and simulates the rest.
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
				return nil, 0, err
			}
			buffered := p.apply(cur, d)
			r, illegal, err := simCandidate(eng.Main, cur, opt)
			if err != nil {
				return nil, 0, err
			}
			if illegal {
				eng.scan.illegal++
			} else {
				eng.scan.simulated++
				if consider(r, candScan, 1) {
					winner.d, winner.p = d, p
				}
			}
			p.undo(cur, d, buffered)
		}
	}
	if winner.r == nil {
		return best, 0, nil
	}
	// The composite winner is still in place; the others are made again.
	switch winner.cand {
	case candPromote:
		eng.promoted = promoteBufferedSends(cur, eng.promoted[:0])
	case candScan:
		winner.p.apply(cur, winner.d)
	}
	eng.chain, eng.next = eng.next, eng.chain
	return winner.r, winner.moves, nil
}
