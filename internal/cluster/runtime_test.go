package cluster

import (
	"sync/atomic"
	"testing"

	"mario/internal/pipeline"
	"mario/internal/scheme"
)

// TestStuckSkipsSatisfiedWaits: the watchdog's scan counts a device as stuck
// only while its wait cannot be met. A device still marked blocked on a
// receive whose message has arrived, a send whose link has room, or a barrier
// whose round was released has merely not been scheduled since; a run where
// the other devices wait on it is slow, not deadlocked. The states are set by
// hand on a 2-device 1F1B schedule, without device goroutines.
func TestStuckSkipsSatisfiedWaits(t *testing.T) {
	s := buildSched(t, pipeline.Scheme1F1B, scheme.Config{Devices: 2, Micros: 4})
	var ra, sa pipeline.Instr // RA0^0 on device 1, SA0^0 on device 0
	for _, in := range s.Lists[1] {
		if in.Kind == pipeline.RecvAct {
			ra = in
			break
		}
	}
	for _, in := range s.Lists[0] {
		if in.Kind == pipeline.SendAct {
			sa = in
			break
		}
	}
	capacity := 4 * s.Micros * s.NumStages() // as Execute makes the links
	barrier := pipeline.Instr{Kind: pipeline.AllReduce}
	closed := make(chan struct{})
	close(closed)

	// setup is one row's state: the execution with empty links, and the
	// device statuses and link traffic to set on it.
	type setup func(rt *execution[float64])
	waitOn := func(d int, in pipeline.Instr) setup {
		return func(rt *execution[float64]) { rt.devs[d].status.block(in, 0, nil) }
	}
	// send runs n sends of SA0^0 on device 0; each lands in the link's buffer.
	send := func(n int) setup {
		return func(rt *execution[float64]) {
			for i := 0; i < n; i++ {
				if err := rt.devs[0].Send(sa, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// pend counts one message on in's link that is in no buffer: a send that
	// has counted its message and not pushed it yet, or a message the runtime
	// handed straight to a receiver parked on the link.
	pend := func(in pipeline.Instr) setup {
		return func(rt *execution[float64]) { rt.pending[rt.res.Link(in)].Add(1) }
	}
	finished := func(d int) setup {
		return func(rt *execution[float64]) { rt.devs[d].status.finish() }
	}
	atBarrier := func(d int, release chan struct{}) setup {
		return func(rt *execution[float64]) { rt.devs[d].status.block(barrier, 0, release) }
	}
	for _, tc := range []struct {
		name  string
		state []setup
		stuck bool
	}{
		{name: "recv delivered", state: []setup{send(1), finished(0), waitOn(1, ra)}},
		{name: "recv handed off", state: []setup{finished(0), waitOn(1, ra), pend(ra)}},
		{name: "recv empty", state: []setup{finished(0), waitOn(1, ra)}, stuck: true},
		{name: "send with room", state: []setup{waitOn(0, sa), pend(sa), finished(1)}},
		{name: "send on a full link", state: []setup{send(capacity), waitOn(0, sa), pend(sa), finished(1)}, stuck: true},
		{name: "barrier released", state: []setup{atBarrier(0, closed), waitOn(1, ra)}},
		{name: "barrier open", state: []setup{atBarrier(0, make(chan struct{})), waitOn(1, ra)}, stuck: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := s.Resolved()
			rt := &execution[float64]{s: s, res: res,
				links:   make([]chan message[float64], res.NumLinks()),
				pending: make([]atomic.Int64, res.NumLinks()),
				devs:    make([]Device[float64], s.NumDevices())}
			for l := range rt.links {
				rt.links[l] = make(chan message[float64], capacity)
			}
			for d := range rt.devs {
				rt.devs[d].ID, rt.devs[d].rt = d, rt
			}
			for _, set := range tc.state {
				set(rt)
			}
			if got := rt.stuck(); (got != nil) != tc.stuck {
				t.Fatalf("stuck() = %q, want stuck %v", got, tc.stuck)
			}
		})
	}
}
