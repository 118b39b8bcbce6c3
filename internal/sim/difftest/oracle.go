package difftest

import (
	"fmt"

	"mario/internal/cost"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/sim"
)

// node addresses one instruction: device and list index.
type node struct{ d, i int }

// link is one eager FIFO: sender, receiver, and channel (activations and
// gradients travel on independent tagged channels).
type link struct{ from, to, ch int }

// Reference is the naive reference simulator: explicit dependency edges — list
// order on a device, and on every eager link the k-th send feeding the k-th
// receive (FIFO order), which must be its matched partner — resolved by one
// Kahn pass, with the arithmetic the paper's model states (compute ends at
// start + dur, a send at start + overhead, a receive at max(start + overhead,
// arrive)). It keeps no caches and reuses nothing, and fills Total and
// Timeline only: the engine's records — identity, peer, payload, start, end
// and receive wait — save the memory after each instruction, which the
// reference does not model. The schedule's communication instructions
// must all have a partner, which Validate guarantees and the harness's
// mutations preserve.
func Reference(s *pipeline.Schedule, e *cost.Estimator, opt sim.Options) (*sim.Result, error) {
	dp := max(opt.DP, 1)
	linkAt := func(d int, in pipeline.Instr) link {
		l := link{from: d, to: s.PeerDevice(d, in)}
		if in.Kind == pipeline.RecvAct || in.Kind == pipeline.RecvGrad {
			l.from, l.to = l.to, l.from
		}
		if in.Kind == pipeline.SendGrad || in.Kind == pipeline.RecvGrad {
			l.ch = 1
		}
		return l
	}
	isSend := func(k pipeline.Kind) bool { return k == pipeline.SendAct || k == pipeline.SendGrad }

	// Edges. ord[d][i] is the position of comm instruction i on its link.
	sends, recvs := map[link][]node{}, map[link][]node{}
	ord := make([][]int, len(s.Lists))
	indeg := make([][]int, len(s.Lists))
	total := 0
	for d, list := range s.Lists {
		ord[d], indeg[d] = make([]int, len(list)), make([]int, len(list))
		total += len(list)
		for i, in := range list {
			if i > 0 {
				indeg[d][i]++
			}
			if !in.Kind.IsComm() {
				continue
			}
			l := linkAt(d, in)
			if isSend(in.Kind) {
				ord[d][i] = len(sends[l])
				sends[l] = append(sends[l], node{d, i})
			} else {
				ord[d][i] = len(recvs[l])
				recvs[l] = append(recvs[l], node{d, i})
				indeg[d][i]++
			}
		}
	}

	end := make([][]float64, len(s.Lists))
	arrive := make([][]float64, len(s.Lists))
	wait := make([][]float64, len(s.Lists))
	var ready []node
	for d, list := range s.Lists {
		end[d], arrive[d], wait[d] = make([]float64, len(list)), make([]float64, len(list)), make([]float64, len(list))
		if len(list) > 0 && indeg[d][0] == 0 {
			ready = append(ready, node{d, 0})
		}
	}
	release := func(n node) {
		if indeg[n.d][n.i]--; indeg[n.d][n.i] == 0 {
			ready = append(ready, n)
		}
	}
	done := 0
	for ; len(ready) > 0; done++ {
		n := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		in := s.Lists[n.d][n.i]
		start := 0.0
		if n.i > 0 {
			start = end[n.d][n.i-1]
		}
		t := start + refDur(s, e, n.d, dp, in)
		if in.Kind.IsComm() {
			l, k := linkAt(n.d, in), ord[n.d][n.i]
			comm := e.CommTime(e.ActP2PBytes)
			if l.ch == 1 {
				comm = e.CommTime(e.GradP2PBytes)
			}
			if isSend(in.Kind) {
				if k < len(recvs[l]) {
					r := recvs[l][k]
					arrive[r.d][r.i] = t + comm
					release(r)
				}
			} else {
				if from := sends[l][k]; s.MatchKey(s.Lists[from.d][from.i]) != in.Key() {
					return nil, fmt.Errorf("%w: device %d pops %s out of order", sim.ErrCommMismatch, n.d, in)
				}
				if a := arrive[n.d][n.i]; a > t {
					wait[n.d][n.i] = a - t
					t = a
				}
			}
		}
		end[n.d][n.i] = t
		if n.i+1 < len(s.Lists[n.d]) {
			release(node{n.d, n.i + 1})
		}
	}
	if done != total {
		return nil, fmt.Errorf("%w: the dependency graph has a cycle or a starved receive", sim.ErrDeadlock)
	}
	res := &sim.Result{Timeline: make([]obs.Event, 0, total)}
	for d, list := range s.Lists {
		start := 0.0
		for i, in := range list {
			rec := obs.Event{Instr: in, Device: d, Peer: -1, Start: start, End: end[d][i], Wait: wait[d][i]}
			if in.Kind.IsComm() {
				rec.Peer, rec.Bytes = s.PeerDevice(d, in), e.ActP2PBytes
				if linkAt(d, in).ch == 1 {
					rec.Bytes = e.GradP2PBytes
				}
			}
			res.Timeline = append(res.Timeline, rec)
			start = end[d][i]
		}
		if start > res.Total {
			res.Total = start
		}
	}
	return res, nil
}

// refDur is the time device d is busy with one instruction before any wait:
// the launch overhead plus, for compute, the estimator's stage latency scaled
// by the device's slowdown. Communication transfers overlap the device, so
// sends and receives cost the overhead alone.
func refDur(s *pipeline.Schedule, e *cost.Estimator, d, dp int, in pipeline.Instr) float64 {
	var base float64
	switch in.Kind {
	case pipeline.Forward, pipeline.CkptForward, pipeline.Recompute:
		base = e.FwTime[in.Stage]
	case pipeline.Backward:
		base = e.BwTime[in.Stage]
	case pipeline.BackwardInput:
		base = e.BwTime[in.Stage] * cost.BwSplitRatio
	case pipeline.BackwardWeight:
		base = e.BwTime[in.Stage] * (1 - cost.BwSplitRatio)
	case pipeline.OptimizerStep:
		base = e.OptTime
	case pipeline.AllReduce:
		var stages []int
		for st := 0; st < s.NumStages(); st++ {
			for p := 0; p < s.Placement.NumParts(); p++ {
				if s.Placement.Device(p, st) == d {
					stages = append(stages, st)
					break
				}
			}
		}
		base = e.AllReduceTime(dp, stages)
	default:
		return e.LaunchOverhead
	}
	return e.LaunchOverhead + base*e.SlowOf(d)
}
