package pipeline

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestInstrSize pins the packed instruction: every list, candidate and plan
// the program holds is an array of these, so a new field must not widen it
// silently.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 16 {
		t.Errorf("pipeline.Instr is %d bytes, want 16", got)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Forward: "FW", CkptForward: "CFW", Backward: "BW", Recompute: "RC",
		SendAct: "SA", RecvAct: "RA", SendGrad: "SG", RecvGrad: "RG",
		AllReduce: "AR", OptimizerStep: "OS",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestKindClassifiers(t *testing.T) {
	for _, k := range []Kind{Forward, CkptForward, Backward, Recompute, OptimizerStep} {
		if !k.IsCompute() {
			t.Errorf("%s should be compute", k)
		}
		if k.IsComm() {
			t.Errorf("%s should not be comm", k)
		}
	}
	for _, k := range []Kind{SendAct, RecvAct, SendGrad, RecvGrad} {
		if !k.IsComm() {
			t.Errorf("%s should be comm", k)
		}
		if k.IsCompute() {
			t.Errorf("%s should not be compute", k)
		}
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Kind: Forward, Micro: 3, Part: 1, Stage: 2}
	if got, want := in.String(), "FW3^1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	ar := Instr{Kind: AllReduce, Micro: NoMicro}
	if got, want := ar.String(), "AR"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseScheme(t *testing.T) {
	for in, want := range map[string]Scheme{
		"V": Scheme1F1B, "1f1b": Scheme1F1B, "x": SchemeChimera,
		"Chimera": SchemeChimera, "W": SchemeInterleave, "interleave": SchemeInterleave,
		"gpipe": SchemeGPipe, " ZB-H1 ": SchemeZBH1,
	} {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// Hanayo is a scheme of the paper's related work with no generator here:
	// a name that parsed would resolve and then find nothing to search.
	for _, in := range []string{"bogus", " Hanayo "} {
		if _, err := ParseScheme(in); err == nil {
			t.Errorf("ParseScheme(%q) should reject an unknown name", in)
		}
	}
}

func TestShapes(t *testing.T) {
	if Scheme1F1B.Shape() != "V" || SchemeChimera.Shape() != "X" || SchemeInterleave.Shape() != "W" {
		t.Error("shape aliases broken")
	}
	if SchemeGPipe.Shape() != "GPipe" {
		t.Errorf("GPipe shape = %q", SchemeGPipe.Shape())
	}
}

// TestBidirPlacementProperty: for all even D and stages s, part 0 and part 1
// place stage s on mirrored devices, and each device owns exactly one stage
// per part.
func TestBidirPlacementProperty(t *testing.T) {
	f := func(dRaw uint8, sRaw uint8) bool {
		d := 2 * (int(dRaw)%16 + 1) // even, 2..32
		p := Bidir(d)
		s := int(sRaw) % d
		return p.Device(0, s)+p.Device(1, s) == d-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInterleavedPlacementProperty: stage s lives on device s mod D with
// chunk s / D.
func TestInterleavedPlacementProperty(t *testing.T) {
	f := func(dRaw, vRaw, sRaw uint8) bool {
		d := int(dRaw)%16 + 1
		v := int(vRaw)%4 + 1
		p := Interleaved(d, v)
		s := int(sRaw) % p.NumStages()
		return p.Device(0, s) == s%d && p.partAt(0, s) == s/d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlacementPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"linear zero":   func() { Linear(0) },
		"bidir odd":     func() { Bidir(3) },
		"interleave -1": func() { Interleaved(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// clone returns a deep copy of s: every device's list is copied into one
// backing, carved as b[lo:hi:hi]. The placement and its resolved view are
// shared.
func clone(s *Schedule) *Schedule {
	c := *s
	c.Lists = make([][]Instr, len(s.Lists))
	n := 0
	for _, l := range s.Lists {
		n += len(l)
	}
	backing := make([]Instr, 0, n)
	for d, l := range s.Lists {
		lo := len(backing)
		backing = append(backing, l...)
		c.Lists[d] = backing[lo:len(backing):len(backing)]
	}
	return &c
}

// TestCloneIsDeep: a clone owns its lists. Writing an element of either
// side's list in place never reaches the other, and appending to one of the
// clone's lists never runs into its neighbour.
func TestCloneIsDeep(t *testing.T) {
	s := NewSchedule(Scheme1F1B, Resolve(Linear(2), 1), [][]Instr{
		{{Kind: Forward}, {Kind: Backward}},
		{{Kind: Forward, Stage: 1}, {Kind: Backward, Stage: 1}},
	})
	want := s.String()
	c := clone(s)
	if c.String() != want {
		t.Fatalf("clone differs from its original:\n%s\nwant:\n%s", c, want)
	}
	c.Lists[0][0].Kind = CkptForward
	c.Lists[1][1].Micro = 7
	if got := s.String(); got != want {
		t.Errorf("an in-place write to the clone reached the original:\n%s\nwant:\n%s", got, want)
	}
	c.Lists[0] = append(c.Lists[0], Instr{Kind: AllReduce, Micro: NoMicro})
	if c.Lists[1][0].Kind != Forward {
		t.Error("appending to one of the clone's lists overwrote the next one")
	}
	s.Lists[1][0].Kind = CkptForward
	if c.Lists[1][0].Kind != Forward {
		t.Error("an in-place write to the original reached the clone")
	}
}

// index maps each instruction's key to its (device, position).
func index(s *Schedule) map[Key][2]int {
	m := map[Key][2]int{}
	for d, l := range s.Lists {
		for i, in := range l {
			m[in.Key()] = [2]int{d, i}
		}
	}
	return m
}

func TestFindAndIndex(t *testing.T) {
	s := NewSchedule(Scheme1F1B, Resolve(Linear(2), 1), [][]Instr{
		{{Kind: Forward, Micro: 0, Stage: 0}},
		{{Kind: Forward, Micro: 0, Stage: 1}, {Kind: Backward, Micro: 0, Stage: 1}},
	})
	idx := index(s)
	if loc := idx[Key{Kind: Forward, Micro: 0, Stage: 1}]; loc != [2]int{1, 0} {
		t.Errorf("Index lookup = %v", loc)
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	mk := func() *Schedule {
		return NewSchedule(Scheme1F1B, Resolve(Linear(1), 1), [][]Instr{{{Kind: Forward, Micro: 0, Stage: 0}, {Kind: Backward, Micro: 0, Stage: 0}}})
	}
	if err := Validate(mk()); err != nil {
		t.Fatalf("minimal schedule should validate: %v", err)
	}

	missingBW := mk()
	missingBW.Lists[0] = missingBW.Lists[0][:1]
	if err := Validate(missingBW); err == nil {
		t.Error("missing backward not caught")
	}

	bwFirst := mk()
	bwFirst.Lists[0][0], bwFirst.Lists[0][1] = bwFirst.Lists[0][1], bwFirst.Lists[0][0]
	if err := Validate(bwFirst); err == nil {
		t.Error("backward-before-forward not caught")
	}

	danglingRC := mk()
	danglingRC.Lists[0] = []Instr{
		{Kind: Forward, Micro: 0, Stage: 0},
		{Kind: Recompute, Micro: 0, Stage: 0},
		{Kind: Backward, Micro: 0, Stage: 0},
	}
	if err := Validate(danglingRC); err == nil {
		t.Error("recompute without checkpointed forward not caught")
	}

	ckptNoRC := mk()
	ckptNoRC.Lists[0][0].Kind = CkptForward
	if err := Validate(ckptNoRC); err == nil {
		t.Error("checkpointed forward without recompute not caught")
	}

	wrongDevice := NewSchedule(Scheme1F1B, Resolve(Linear(2), 1), [][]Instr{
		{{Kind: Forward, Micro: 0, Stage: 1}, {Kind: Backward, Micro: 0, Stage: 1}},
		{{Kind: Forward, Micro: 0, Stage: 0}, {Kind: Backward, Micro: 0, Stage: 0}},
	})
	if err := Validate(wrongDevice); err == nil {
		t.Error("misplaced instructions not caught")
	}
}

func TestCountKindScopes(t *testing.T) {
	s := NewSchedule(SchemeGPipe, Resolve(Linear(2), 1), [][]Instr{
		{{Kind: Forward, Stage: 0}, {Kind: Backward, Stage: 0}},
		{{Kind: Forward, Stage: 1}, {Kind: Backward, Stage: 1}},
	})
	if got := s.CountKind(-1, Forward); got != 2 {
		t.Errorf("global FW count = %d", got)
	}
	if got := s.CountKind(1, Forward); got != 1 {
		t.Errorf("dev1 FW count = %d", got)
	}
}
