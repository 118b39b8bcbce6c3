package pipeline

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func sampleSchedule() *Schedule {
	return NewSchedule(Scheme1F1B, Resolve(Linear(2), 1), [][]Instr{
		{
			{Kind: Forward, Micro: 0, Stage: 0},
			{Kind: SendAct, Micro: 0, Stage: 0},
			{Kind: RecvGrad, Micro: 0, Stage: 0},
			{Kind: Backward, Micro: 0, Stage: 0},
			{Kind: AllReduce, Micro: NoMicro},
			{Kind: OptimizerStep, Micro: NoMicro},
		},
		{
			{Kind: RecvAct, Micro: 0, Stage: 1},
			{Kind: Forward, Micro: 0, Stage: 1},
			{Kind: Backward, Micro: 0, Stage: 1},
			{Kind: SendGrad, Micro: 0, Stage: 1},
			{Kind: AllReduce, Micro: NoMicro},
			{Kind: OptimizerStep, Micro: NoMicro},
		},
	})
}

// TestJSONRoundTrip: marshal → unmarshal reproduces the schedule exactly
// for every placement family.
func TestJSONRoundTrip(t *testing.T) {
	cases := []*Schedule{sampleSchedule()}
	bidir := NewSchedule(SchemeChimera, Resolve(Bidir(2), 1), sampleSchedule().Lists)
	cases = append(cases, bidir)

	for _, s := range cases {
		if err := Validate(s); err != nil {
			t.Fatalf("sample invalid: %v", err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Scheme, err)
		}
		var got Schedule
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v", s.Scheme, err)
		}
		if got.Scheme != s.Scheme || got.Micros != s.Micros {
			t.Errorf("%s: header mismatch", s.Scheme)
		}
		if !reflect.DeepEqual(got.Lists, s.Lists) {
			t.Errorf("%s: lists differ after round trip", s.Scheme)
		}
		if got.NumDevices() != s.NumDevices() {
			t.Errorf("%s: placement mismatch", s.Scheme)
		}
	}
}

// TestJSONPreservesBufferedFlag: the pass-4 Buffered marker survives.
func TestJSONPreservesBufferedFlag(t *testing.T) {
	s := sampleSchedule()
	s.Lists[0][0].Kind = CkptForward
	s.Lists[0][1].Buffered = true
	s.Lists[0] = append(s.Lists[0][:2],
		append([]Instr{{Kind: RecvGrad, Micro: 0, Stage: 0}, {Kind: Recompute, Micro: 0, Stage: 0}, {Kind: Backward, Micro: 0, Stage: 0}},
			s.Lists[0][4:]...)...)
	if err := Validate(s); err != nil {
		t.Fatalf("sample invalid: %v", err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schedule
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Lists[0][1].Buffered {
		t.Error("Buffered flag lost")
	}
	if got.Lists[0][0].Kind != CkptForward {
		t.Error("CFW kind lost")
	}
}

// TestJSONRejectsWideCoordinates: a coordinate outside int32 is refused, not
// wrapped — 2³² plus a valid coordinate would otherwise decode to that
// coordinate, validate, and re-encode to other bytes.
func TestJSONRejectsWideCoordinates(t *testing.T) {
	data, err := json.Marshal(sampleSchedule())
	if err != nil {
		t.Fatal(err)
	}
	var got Schedule
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("the unedited body does not decode: %v", err)
	}
	for name, edit := range map[string][2]string{
		"micro":    {`{"k":"FW","m":0,"s":0}`, `{"k":"FW","m":4294967296,"s":0}`},
		"no micro": {`{"k":"AR","m":-1,"s":0}`, `{"k":"AR","m":-4294967297,"s":0}`},
		"part":     {`{"k":"FW","m":0,"s":0}`, `{"k":"FW","m":0,"p":4294967296,"s":0}`},
		"stage":    {`{"k":"FW","m":0,"s":0}`, `{"k":"FW","m":0,"s":4294967296}`},
	} {
		bad := strings.Replace(string(data), edit[0], edit[1], 1)
		if bad == string(data) {
			t.Fatalf("%s: %q not found in %s", name, edit[0], data)
		}
		if err := json.Unmarshal([]byte(bad), &got); err == nil {
			t.Errorf("a %s coordinate past int32 was accepted", name)
		}
	}
}

// TestJSONRejectsCorrupted: decoding enforces validation and kind names.
func TestJSONRejectsCorrupted(t *testing.T) {
	s := sampleSchedule()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown kind.
	bad := strings.Replace(string(data), `"k":"FW"`, `"k":"ZZ"`, 1)
	var got Schedule
	if err := json.Unmarshal([]byte(bad), &got); err == nil {
		t.Error("unknown kind accepted")
	}
	// Structurally broken: drop a backward.
	bad = strings.Replace(string(data), `{"k":"BW","m":0,"s":0},`, ``, 1)
	if err := json.Unmarshal([]byte(bad), &got); err == nil {
		t.Error("missing backward accepted")
	}
	// Unknown placement.
	bad = strings.Replace(string(data), `"type":"linear"`, `"type":"mystery"`, 1)
	if err := json.Unmarshal([]byte(bad), &got); err == nil {
		t.Error("unknown placement accepted")
	}
	if err := json.Unmarshal([]byte(`{`), &got); err == nil {
		t.Error("syntactic garbage accepted")
	}
	// A declared shape the body cannot back is an error before anything is
	// sized from it — never a constructor panic or a scratch allocation.
	for name, edit := range map[string][2]string{
		"no devices":           {`"devices":2`, `"devices":0`},
		"devices ≠ lists":      {`"devices":2`, `"devices":1073741824`},
		"odd bidirectional":    {`"type":"linear","devices":2`, `"type":"bidir","devices":3`},
		"chunkless interleave": {`"type":"linear"`, `"type":"interleaved"`},
		"a billion chunks":     {`"type":"linear"`, `"type":"interleaved","chunks":1073741824`},
		"chunks on linear":     {`"type":"linear"`, `"type":"linear","chunks":1`},
		"a billion micros":     {`"micros":1`, `"micros":1073741824`},
		"negative micros":      {`"micros":1`, `"micros":-1`},
	} {
		bad := strings.Replace(string(data), edit[0], edit[1], 1)
		if bad == string(data) {
			t.Fatalf("%s: %q not found in %s", name, edit[0], data)
		}
		if err := json.Unmarshal([]byte(bad), &got); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
