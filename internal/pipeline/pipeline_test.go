package pipeline

import (
	"strings"
	"testing"
	"testing/quick"
)

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
		p := NewBidirPlacement(d)
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
		p := NewInterleavedPlacement(d, v)
		s := int(sRaw) % p.NumStages()
		return p.Device(0, s) == s%d && p.PartOfStage(s) == s/d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlacementPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"linear zero":   func() { NewLinearPlacement(0) },
		"bidir odd":     func() { NewBidirPlacement(3) },
		"interleave -1": func() { NewInterleavedPlacement(-1, 2) },
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

func TestCloneIsCopyOnWrite(t *testing.T) {
	s := &Schedule{
		Scheme:    Scheme1F1B,
		Placement: NewLinearPlacement(2),
		Micros:    1,
		Lists: [][]Instr{
			{{Kind: Forward}, {Kind: Backward}},
			{{Kind: Forward, Stage: 1}, {Kind: Backward, Stage: 1}},
		},
	}
	c := s.Clone()
	// Unmutated lists are shared storage.
	if &c.Lists[0][0] != &s.Lists[0][0] {
		t.Error("Clone copied a list eagerly; want shared storage until mutation")
	}
	// A mutation through MutableList copies first and never leaks back.
	l := c.MutableList(0)
	l[0].Kind = CkptForward
	if s.Lists[0][0].Kind != Forward {
		t.Error("MutableList mutation leaked into the parent schedule")
	}
	if c.Lists[0][0].Kind != CkptForward {
		t.Error("MutableList mutation not visible through the clone")
	}
	// The other device's list is still shared (copy was per-list).
	if &c.Lists[1][0] != &s.Lists[1][0] {
		t.Error("mutating one device's list copied another device's list")
	}
	// The parent, too, must copy before writing: it no longer owns its lists.
	pl := s.MutableList(1)
	pl[0].Kind = CkptForward
	if c.Lists[1][0].Kind != Forward {
		t.Error("parent mutation after Clone leaked into the clone")
	}
	// SetList hands ownership to the schedule; a later MutableList call must
	// not copy again.
	owned := []Instr{{Kind: Forward, Stage: 1}}
	c.SetList(1, owned)
	if got := c.MutableList(1); &got[0] != &owned[0] {
		t.Error("MutableList copied a list the schedule already owns")
	}
}

func TestFindAndIndex(t *testing.T) {
	s := &Schedule{
		Scheme:    Scheme1F1B,
		Placement: NewLinearPlacement(2),
		Micros:    1,
		Lists: [][]Instr{
			{{Kind: Forward, Micro: 0, Stage: 0}},
			{{Kind: Forward, Micro: 0, Stage: 1}, {Kind: Backward, Micro: 0, Stage: 1}},
		},
	}
	idx := s.Index()
	if loc := idx[Key{Kind: Forward, Micro: 0, Stage: 1}]; loc != [2]int{1, 0} {
		t.Errorf("Index lookup = %v", loc)
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	mk := func() *Schedule {
		return &Schedule{
			Scheme:    Scheme1F1B,
			Placement: NewLinearPlacement(1),
			Micros:    1,
			Lists:     [][]Instr{{{Kind: Forward, Micro: 0, Stage: 0}, {Kind: Backward, Micro: 0, Stage: 0}}},
		}
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

	wrongDevice := &Schedule{
		Scheme:    Scheme1F1B,
		Placement: NewLinearPlacement(2),
		Micros:    1,
		Lists: [][]Instr{
			{{Kind: Forward, Micro: 0, Stage: 1}, {Kind: Backward, Micro: 0, Stage: 1}},
			{{Kind: Forward, Micro: 0, Stage: 0}, {Kind: Backward, Micro: 0, Stage: 0}},
		},
	}
	if err := Validate(wrongDevice); err == nil {
		t.Error("misplaced instructions not caught")
	}
}

func TestCountKindScopes(t *testing.T) {
	s := &Schedule{
		Scheme:    SchemeGPipe,
		Placement: NewLinearPlacement(2),
		Micros:    1,
		Lists: [][]Instr{
			{{Kind: Forward, Stage: 0}, {Kind: Backward, Stage: 0}},
			{{Kind: Forward, Stage: 1}, {Kind: Backward, Stage: 1}},
		},
	}
	if got := s.CountKind(-1, Forward); got != 2 {
		t.Errorf("global FW count = %d", got)
	}
	if got := s.CountKind(1, Forward); got != 1 {
		t.Errorf("dev1 FW count = %d", got)
	}
	if got := s.TotalInstrs(); got != 4 {
		t.Errorf("TotalInstrs = %d", got)
	}
}
