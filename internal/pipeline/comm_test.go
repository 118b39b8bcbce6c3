package pipeline

import (
	"strings"
	"testing"
)

// buildSkeleton1F1B makes a tiny compute-only schedule for InsertComm tests.
func buildSkeleton1F1B(d, n int) *Schedule {
	s := &Schedule{
		Scheme:    Scheme1F1B,
		Placement: NewLinearPlacement(d),
		Micros:    n,
		Lists:     make([][]Instr, d),
	}
	for dev := 0; dev < d; dev++ {
		for m := 0; m < n; m++ {
			s.Lists[dev] = append(s.Lists[dev], Instr{Kind: Forward, Micro: m, Stage: dev})
		}
		for m := n - 1; m >= 0; m-- {
			s.Lists[dev] = append(s.Lists[dev], Instr{Kind: Backward, Micro: m, Stage: dev})
		}
	}
	return s
}

// TestInsertCommStructure: comm instructions appear in the canonical slots
// and only across device boundaries, AR/OS are appended, and the result
// validates.
func TestInsertCommStructure(t *testing.T) {
	s := buildSkeleton1F1B(3, 2)
	InsertComm(s)
	if err := Validate(s); err != nil {
		t.Fatalf("invalid after InsertComm: %v", err)
	}
	// Device 0: no receives of activations (first stage), sends only.
	for _, in := range s.Lists[0] {
		if in.Kind == RecvAct || in.Kind == SendGrad {
			t.Errorf("dev0 should not %s", in)
		}
	}
	// Device 2 (last): no SendAct/RecvGrad.
	for _, in := range s.Lists[2] {
		if in.Kind == SendAct || in.Kind == RecvGrad {
			t.Errorf("dev2 should not %s", in)
		}
	}
	// Every list ends with AR then OS.
	for d, list := range s.Lists {
		if list[len(list)-2].Kind != AllReduce || list[len(list)-1].Kind != OptimizerStep {
			t.Errorf("dev%d does not end with AR, OS", d)
		}
	}
}

// TestInsertCommSingleDevice: a one-device pipeline needs no communication.
func TestInsertCommSingleDevice(t *testing.T) {
	s := buildSkeleton1F1B(1, 2)
	InsertComm(s)
	for _, in := range s.Lists[0] {
		if in.Kind.IsComm() {
			t.Errorf("single device got %s", in)
		}
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
}

// TestMatchKeyInverse: MatchKey is an involution on every comm instruction.
func TestMatchKeyInverse(t *testing.T) {
	s := buildSkeleton1F1B(4, 2)
	InsertComm(s)
	idx := s.Index()
	for d, list := range s.Lists {
		for _, in := range list {
			if !in.Kind.IsComm() {
				continue
			}
			mk := s.MatchKey(in)
			loc, ok := idx[mk]
			if !ok {
				t.Fatalf("dev%d: %s has no match", d, in)
			}
			other := s.Lists[loc[0]][loc[1]]
			back := s.MatchKey(other)
			if back != in.Key() {
				t.Errorf("MatchKey not involutive: %s -> %v -> %v", in, mk, back)
			}
		}
	}
}

// TestMatchKeyPanicsOnCompute guards the contract.
func TestMatchKeyPanicsOnCompute(t *testing.T) {
	s := buildSkeleton1F1B(2, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.MatchKey(Instr{Kind: Forward})
}

// TestScheduleString renders device rows.
func TestScheduleString(t *testing.T) {
	s := buildSkeleton1F1B(2, 1)
	out := s.String()
	if !strings.Contains(out, "dev0:") || !strings.Contains(out, "FW0^0") {
		t.Errorf("String output unexpected:\n%s", out)
	}
}

// TestPlacementAccessors exercises the trivial interface methods directly.
func TestPlacementAccessors(t *testing.T) {
	lin := NewLinearPlacement(4)
	if lin.NumParts() != 1 || lin.WeightReplicas() != 1 || lin.NumStages() != 4 {
		t.Error("linear accessors wrong")
	}
	bid := NewBidirPlacement(4)
	if bid.NumParts() != 2 || bid.WeightReplicas() != 2 || bid.NumDevices() != 4 {
		t.Error("bidir accessors wrong")
	}
	il := NewInterleavedPlacement(4, 3)
	if il.NumParts() != 3 || il.WeightReplicas() != 1 || il.NumStages() != 12 || il.NumDevices() != 4 {
		t.Error("interleaved accessors wrong")
	}
}

// TestSplitKindNames: the new kinds have stable mnemonics.
func TestSplitKindNames(t *testing.T) {
	if BackwardInput.String() != "BI" || BackwardWeight.String() != "WG" {
		t.Errorf("split kind names: %s, %s", BackwardInput, BackwardWeight)
	}
	if !BackwardInput.IsCompute() || !BackwardWeight.IsCompute() {
		t.Error("split kinds should be compute")
	}
}
