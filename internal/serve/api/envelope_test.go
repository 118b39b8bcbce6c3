package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// envelopeSeeds are bodies the reader must treat as encoding/json does: the
// shapes of answer the service writes (internal/serve's envelope_test.go pins
// writePlanResponse to the encoder's bytes for the same ten), then what only a
// foreign or hostile sender writes.
func envelopeSeeds(t testing.TB) [][]byte {
	t.Helper()
	plan := json.RawMessage(`{"version":3,"note":"a < b & c","best":{"scheme":"V","t":[0,-1.5e+3,0.25]}}`)
	trace := json.RawMessage(`{"fingerprint":"f00d","spans":[]}`)
	var seeds [][]byte
	for _, resp := range []PlanResponse{
		{Fingerprint: "f00d", Plan: plan},
		{Fingerprint: "f00d", Cached: true, Plan: plan},
		{Fingerprint: "f00d", Shared: true, Plan: plan},
		{Fingerprint: "f00d", Plan: plan, Trace: trace},
		{Fingerprint: "f00d", Shared: true, Plan: plan, Trace: trace},
		{Fingerprint: "f00d", Cached: true, Peer: "http://10.0.0.2:8437", Plan: plan},
		{Fingerprint: "f00d", Peer: "http://10.0.0.2:8437", Plan: plan, Trace: trace},
		{Fingerprint: "f00d"},
		{Fingerprint: "f00d", Trace: trace},
		{Fingerprint: "</script>&\u2028\u2029\x00\b\f\n\r\t\x7f\\", Cached: true, Peer: "http://h/?a=<&>\" \xff\xc0end", Plan: plan},
	} {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	nested := func(depth int) string { // the envelope object is the first level
		return `{"plan":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
	}
	for _, s := range []string{
		`{"Fingerprint":"a\n","cached":null,"plan":null,"plan":7}`,
		"{\"PLAN\":[1],\"\u017fhared\":true,\"\u017fHARED\":false,\"fingerprint\":\"raw \xff and \\ud800 lone\"}",
		`{"\u0066\u0069\u006e\u0067\u0065\u0072\u0070\u0072\u0069\u006e\u0074":"every letter escaped","pl\u0061n":[2],"\u017fhared":true}`,
		`{"` + strings.Repeat(`\u0066`, 12) + `":1,"cached":true}`,
		`{"fingerprint":7}`, `{"cached":"true"}`, `{"peer":{}}`, `{"shared":[]}`, `{"plan":}`,
		`{"cached":` + strings.Repeat(" ", 200) + `true, "unknown" : {"a":[{},[],""]} }`,
		`{"fingerprint":"` + strings.Repeat("é", 100) + `","peer":null,"cached":` + strings.Repeat("1", 200) + `}`,
		"null", " null\n", "[]", "7", `"plan"`, "", "{", "{}", "{} x", `{"plan":1}{"plan":2}`, `{"plan":1,}`, `{,"plan":1}`,
		`{"plan":-}`, `{"plan":01}`, `{"plan":1.}`, `{"plan":1e}`, `{"plan":-0.0e-0}`, `{"plan":tru}`, "{\"plan\":\"\x1f\"}", `{"plan":"😀\u12"}`, `{"plan":"\x"}`,
		nested(10000), nested(10001),
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// checkAgainstEncodingJSON is the reader's contract: an error exactly when
// json.Unmarshal into a PlanResponse reports one, otherwise the same fields.
func checkAgainstEncodingJSON(t *testing.T, body []byte) {
	t.Helper()
	var want PlanResponse
	wantErr := json.Unmarshal(body, &want)
	got, err := ParsePlanResponse(bytes.Clone(body))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("reader error %v, encoding/json error %v, on %q", err, wantErr, body)
	}
	if err == nil && !reflect.DeepEqual(*got, want) {
		t.Fatalf("reader %+v, encoding/json %+v, on %q", *got, want, body)
	}
}

func FuzzPlanResponseRead(f *testing.F) {
	for _, body := range envelopeSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(checkAgainstEncodingJSON)
}
