package graph

import (
	"errors"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/sim"
)

// TestSimCandidateVerdicts pins simCandidate as the one definition of an
// unusable candidate on a 2-device 1F1B schedule: a deadlock or a mispaired
// pop is illegal, a peak over the memory limit is OOM but not illegal — both
// with a nil result — and any other simulation error passes through. cause is
// the error a plain simulation of the candidate returns, so each row is the
// case it names.
func TestSimCandidateVerdicts(t *testing.T) {
	base := build1f1b(t, 2, 4)
	e := cost.Uniform(2, 1, 2, 0.25)
	// edit returns a clone of base with device d's list rewritten by f.
	edit := func(d int, f func([]pipeline.Instr)) *pipeline.Schedule {
		c := base.Clone()
		f(c.MutableList(d))
		return c
	}
	// nth returns the index of the n-th instruction of kind k on list.
	nth := func(list []pipeline.Instr, k pipeline.Kind, n int) int {
		for i, in := range list {
			if in.Kind == k {
				if n == 0 {
					return i
				}
				n--
			}
		}
		t.Fatalf("list has no %s #%d", k, n)
		return -1
	}
	for _, tc := range []struct {
		name     string
		c        *pipeline.Schedule
		e        *cost.Estimator
		memLimit float64
		cause    error // what sim.Simulate returns for the candidate
		result   bool
		illegal  bool
		err      bool
	}{
		{name: "legal", c: base, e: e, result: true},
		// Device 0 waits for micro 0's gradient before sending its
		// activation, which the gradient needs.
		{name: "deadlock", e: e, cause: sim.ErrDeadlock, illegal: true,
			c: edit(0, func(l []pipeline.Instr) {
				rg := nth(l, pipeline.RecvGrad, 0)
				in := l[rg]
				copy(l[1:rg+1], l[:rg])
				l[0] = in
			})},
		// Device 1 pops micro 1's activation first; the link delivers
		// micro 0's.
		{name: "mismatch", e: e, cause: sim.ErrCommMismatch, illegal: true,
			c: edit(1, func(l []pipeline.Instr) {
				a, b := nth(l, pipeline.RecvAct, 0), nth(l, pipeline.RecvAct, 1)
				l[a], l[b] = l[b], l[a]
			})},
		{name: "oom", c: base, e: e, memLimit: 0.5},
		{name: "wrong-stages", c: base, e: cost.Uniform(3, 1, 2, 0.25), err: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Estimator: tc.e, Sim: sim.Options{MemLimit: tc.memLimit}}
			if tc.cause != nil {
				if _, err := sim.Simulate(tc.c, tc.e, opt.Sim); !errors.Is(err, tc.cause) {
					t.Fatalf("Simulate: err = %v, want %v", err, tc.cause)
				}
			}
			if tc.memLimit > 0 {
				if r, err := sim.Simulate(tc.c, tc.e, opt.Sim); err != nil || !r.OOM {
					t.Fatalf("Simulate under limit %v: OOM unset (err %v)", tc.memLimit, err)
				}
			}
			r, illegal, err := simCandidate(&sim.Simulator{}, tc.c, opt)
			if (err != nil) != tc.err {
				t.Fatalf("err = %v, want error %v", err, tc.err)
			}
			if (r != nil) != tc.result || illegal != tc.illegal {
				t.Fatalf("result %v illegal %v, want result %v illegal %v", r != nil, illegal, tc.result, tc.illegal)
			}
		})
	}
}
