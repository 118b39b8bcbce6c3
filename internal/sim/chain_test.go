package sim_test

import (
	"math"
	"testing"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/sim/difftest"
)

// chainWeight is what one instruction adds to a list-order run, derived from
// the estimator alone: compute latency scaled by the device's slowdown, and
// for a transfer the launch overhead — its latency sits on the edge.
func chainWeight(s *pipeline.Schedule, e *cost.Estimator, d, dp int, in pipeline.Instr) float64 {
	switch {
	case in.Kind == pipeline.AllReduce:
		return e.LaunchOverhead + e.AllReduceTime(dp, s.Resolved().Stages(d))*e.SlowOf(d)
	case in.Kind.IsComm():
		return e.LaunchOverhead
	}
	return e.LaunchOverhead + sim.ComputeBase(e, in.Kind, int(in.Stage))*e.SlowOf(d)
}

// TestCriticalChainTight holds CriticalChain to what the prepose filter's
// proof needs of it: the chain starts at t = 0 and ends on the makespan, its
// segments are joined by matched send→receive pairs, and its weights — list
// order inside a segment, transfer latency between segments — re-sum to Total,
// which is also the longest path the reference simulator's dependency graph
// has.
func TestCriticalChainTight(t *testing.T) {
	for _, sch := range []pipeline.Scheme{pipeline.SchemeGPipe, pipeline.Scheme1F1B, pipeline.SchemeChimera,
		pipeline.SchemeInterleave, pipeline.SchemeZBH1, pipeline.SchemeDualPipeD} {
		base := build(t, sch, scheme.Config{Devices: 4, Micros: 8, Chunks: 2})
		est := cost.Uniform(base.NumStages(), 5, 9, 1)
		est.LaunchOverhead, est.LinkLatency = 0.07, 0.3
		for st := range est.FwTime {
			est.FwTime[st] *= 1 + 0.1*float64(st%3)
			est.BwTime[st] *= 1 + 0.07*float64(st%4)
		}
		slow := *est
		slow.DeviceSpeed = []float64{1, 0.8, 1, 1.25}
		ckpt := graph.ApplyCheckpoint(base)
		tuned, _, err := graph.Optimize(base, graph.Options{Estimator: est})
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		for name, s := range map[string]*pipeline.Schedule{"plain": base, "ckpt": ckpt, "tuned": tuned} {
			for _, e := range []*cost.Estimator{est, &slow} {
				opt := sim.Options{DP: 2}
				var eng sim.Simulator
				res, err := eng.Simulate(s, e, opt)
				if err != nil {
					t.Fatalf("%s/%s: %v", sch, name, err)
				}
				chain := eng.CriticalChain(nil)
				if len(chain) == 0 {
					t.Fatalf("%s/%s: no chain", sch, name)
				}
				// rec is instruction i of device d's record in the
				// device-major timeline.
				rec := func(d, i int32) obs.Event {
					k := int(i)
					for _, l := range s.Lists[:d] {
						k += len(l)
					}
					return res.Timeline[k]
				}
				first, last := chain[len(chain)-1], chain[0]
				if first.Lo != 0 || rec(first.Dev, 0).Start != 0 {
					t.Errorf("%s/%s: chain starts at dev%d[%d], not at t = 0", sch, name, first.Dev, first.Lo)
				}
				if int(last.Hi) != len(s.Lists[last.Dev])-1 || rec(last.Dev, last.Hi).End != res.Total {
					t.Errorf("%s/%s: chain ends at dev%d[%d], not on the makespan", sch, name, last.Dev, last.Hi)
				}
				// Forward from t = 0, in the propagation's own order of additions.
				sum := 0.0
				for k := len(chain) - 1; k >= 0; k-- {
					sg := chain[k]
					list := s.Lists[sg.Dev]
					lo := int(sg.Lo)
					if k < len(chain)-1 {
						from := chain[k+1]
						send := s.Lists[from.Dev][from.Hi]
						if s.MatchKey(send) != list[lo].Key() {
							t.Fatalf("%s/%s: segment %d enters at %s, the one before leaves at %s", sch, name, k, list[lo], send)
						}
						bytes := e.ActP2PBytes
						if send.Kind == pipeline.SendGrad {
							bytes = e.GradP2PBytes
						}
						sum += e.CommTime(bytes)
						lo++ // the receive ends when its message lands
					}
					for i := lo; i <= int(sg.Hi); i++ {
						sum += chainWeight(s, e, int(sg.Dev), 2, list[i])
					}
				}
				if math.Abs(sum-res.Total) > 1e-12 {
					t.Errorf("%s/%s: chain weights sum to %v, Total is %v", sch, name, sum, res.Total)
				}
				ref, err := difftest.Reference(s, e, opt)
				if err != nil {
					t.Fatalf("%s/%s: reference: %v", sch, name, err)
				}
				if math.Abs(sum-ref.Total) > 1e-12 {
					t.Errorf("%s/%s: chain is %v long, the reference's longest path %v", sch, name, sum, ref.Total)
				}
			}
		}
	}
}
