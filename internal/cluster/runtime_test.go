package cluster

import (
	"errors"
	"strings"
	"testing"

	"mario/internal/obs"
	"mario/internal/pipeline"
)

// transfer is an executor that only moves messages: each send posts a zero,
// each receive takes one.
func transfer(dv *Device[float64], in pipeline.Instr, _ *obs.Event) error {
	switch in.Kind {
	case pipeline.SendAct, pipeline.SendGrad:
		return dv.Send(in, 0)
	case pipeline.RecvAct, pipeline.RecvGrad:
		_, err := dv.Recv(in)
		return err
	}
	return nil
}

// TestDeadlockErrorNamesCulprit: each of the three waits — a receive on an
// empty link, a send on a full one, the all-reduce barrier — ends a run that
// cannot finish with ErrDeadlock, and the error names every unfinished
// device's pending instruction and what it waits on. Devices run on a linear
// placement; the lists are laid out by hand.
func TestDeadlockErrorNamesCulprit(t *testing.T) {
	fw := func(stage int) pipeline.Instr { return pipeline.Instr{Kind: pipeline.Forward, Stage: int32(stage)} }
	comm := func(k pipeline.Kind, stage int) pipeline.Instr { return pipeline.Instr{Kind: k, Stage: int32(stage)} }
	allReduce := pipeline.Instr{Kind: pipeline.AllReduce, Micro: pipeline.NoMicro}
	for _, tc := range []struct {
		name  string
		lists [][]pipeline.Instr
		iters int
		// merge runs the lists with a barrier; without one they complete.
		merge bool
		// blocked is the number of unfinished devices the error names.
		blocked int
		want    []string
	}{
		{
			// Device 0 receives the gradient before sending the activation
			// device 1 needs to produce it: a cyclic wait.
			name: "crossed receives",
			lists: [][]pipeline.Instr{
				{comm(pipeline.RecvGrad, 0), fw(0), comm(pipeline.SendAct, 0), {Kind: pipeline.Backward}},
				{comm(pipeline.RecvAct, 1), fw(1), {Kind: pipeline.Backward, Stage: 1}, comm(pipeline.SendGrad, 1)},
			},
			iters:   1,
			blocked: 2,
			want:    []string{"dev0 blocked on recv RG0^0", "link 1->0[grad]", "dev1 blocked on recv RA0^0", "link 0->1[act]"},
		},
		{
			name:    "barrier",
			lists:   [][]pipeline.Instr{{fw(0), allReduce}, {fw(1)}},
			iters:   1,
			merge:   true,
			blocked: 1,
			want:    []string{"dev0 blocked on AR (iter 0) at the all-reduce barrier"},
		},
		{
			// Device 0 forwards and sends into a link nobody drains, so it
			// fills after 4·Micros·NumStages = 12 iterations.
			name: "full link",
			lists: [][]pipeline.Instr{
				{fw(0), comm(pipeline.SendAct, 0)},
				{comm(pipeline.RecvGrad, 1)},
				{},
			},
			iters:   13,
			blocked: 2,
			want: []string{"dev0 blocked on send SA0^0 (stage 0, micro 0, iter 12) link 0->1[act]",
				"dev1 blocked on recv RG0^0 (stage 1, micro 0, iter 0) link 2->1[grad]"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := pipeline.NewSchedule(pipeline.Scheme1F1B, pipeline.Resolve(pipeline.Linear(len(tc.lists)), 1), tc.lists)
			var merge func()
			merges := 0
			if tc.merge {
				merge = func() { merges++ }
			}
			_, err := Execute[float64](s, tc.iters, merge, false, transfer)
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("err = %v, want ErrDeadlock", err)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("deadlock error missing %q:\n%s", want, err)
				}
			}
			if got := strings.Count(err.Error(), "blocked on"); got != tc.blocked {
				t.Errorf("deadlock error names %d devices:\n%s", got, err)
			}
			if merges != 0 {
				t.Errorf("merge ran %d times with a device missing from the barrier", merges)
			}
			if tc.merge {
				// The emulator passes no merge: its all-reduce never waits.
				if _, err := Execute[float64](s, tc.iters, nil, false, transfer); err != nil {
					t.Errorf("without a barrier: %v", err)
				}
			}
		})
	}
}
