package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
}

// A tail percentile counts only with at least ten samples beyond it.
func TestPinnedTail(t *testing.T) {
	for _, tc := range []struct {
		n     int
		pct   float64
		valid bool
	}{
		{100, 90, true},  // exactly 10 beyond
		{99, 90, false},  // 9.9 beyond
		{40, 70, true},   // 12 beyond
		{30, 70, false},  // 9 beyond
		{1000, 99, true}, // 10 beyond
		{999, 99, false}, // 9.99 beyond
		{5, 50, false},   // far too few
		{3600, 99, true}, // a serve-hot window
	} {
		v, valid := pinnedTail(seq(tc.n), tc.pct)
		if valid != tc.valid {
			t.Errorf("pinnedTail(n=%d, p%g) valid = %v, want %v", tc.n, tc.pct, valid, tc.valid)
		}
		if want := quantile(seq(tc.n), tc.pct/100); v != want {
			t.Errorf("pinnedTail(n=%d, p%g) = %v, want the quantile %v", tc.n, tc.pct, v, want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance check of the benchmark uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(5), 1.5, 4.5},
		{seq(2), 0.75, 2.25}, // extrapolates, as Python does
		{[]float64{10.2, 9.9, 10.0, 10.4, 10.1, 9.8, 10.3, 10.0, 10.6, 9.7}, 9.875, 10.325},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(seq(10)); !near(got, 5.5/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// Self time is duration minus the part of the interval that children cover:
// overlapping children count once, children are clipped to the parent, and
// grandchildren do not count against the grandparent twice.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b overlaps a", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c runs past root", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 10, End: 25},
		{ID: 6, Parent: 3, Name: "inside b", Start: 35, End: 36},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (60 - 10) - (100 - 90), // a∪b covers 10..60, c covers 90..100
		2: 30 - 15,
		3: 30 - 1,
		4: 30,
		5: 15,
		6: 1,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0, 0); id != 0 || off.end(id) != 0 {
		t.Error("a nil recorder must record nothing")
	}
	r := newRecorder()
	root := r.begin("root", 0, 1)
	kid := r.begin("kid", root, 1)
	r.end(kid)
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[0].End < r.spans[1].End {
		t.Errorf("spans = %+v", r.spans)
	}
	dir := t.TempDir()
	path, err := r.write(dir, "w", 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Seed     uint64
		Spans    []span
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Workload != "w" || doc.Seed != 7 || len(doc.Spans) != 2 {
		t.Errorf("trace file = %s (%v)", data, err)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		check(d)
		on := false
		for _, w := range workloads {
			on = on || d.measuredOn(w)
		}
		if !on {
			t.Errorf("metric %s is measured on no workload (On = %q)", d.Name, d.On)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || seen[w.name] {
			t.Errorf("workload %q: bad or duplicate name, or a why of %d characters", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}

// The harness emits exactly the declared names on every workload: nothing
// undeclared, nothing missing, nothing on a workload it is not declared for.
func TestEmittedNamesEqualDeclared(t *testing.T) {
	for _, w := range workloads {
		full := values{}
		for _, d := range perLayer {
			if d.measuredOn(w) {
				full[d.Name] = 1
			}
		}
		vals, err := full.checked(perLayer, w, true)
		if err != nil || len(vals) != len(perLayer) {
			t.Fatalf("%s: complete values rejected: %v", w.name, err)
		}
		for i, d := range perLayer {
			if want := map[bool]float64{true: 1, false: 0}[d.measuredOn(w)]; vals[i] != want {
				t.Errorf("%s: %s = %v, want %v", w.name, d.Name, vals[i], want)
			}
		}

		var measured, unmeasured string
		for _, d := range perLayer {
			if d.measuredOn(w) {
				measured = d.Name
			} else {
				unmeasured = d.Name
			}
		}
		missing := values{}
		for k, x := range full {
			missing[k] = x
		}
		delete(missing, measured)
		if _, err := missing.checked(perLayer, w, true); err == nil {
			t.Errorf("%s: values without %s accepted", w.name, measured)
		}
		if unmeasured != "" {
			full[unmeasured] = 1
			if _, err := full.checked(perLayer, w, true); err == nil {
				t.Errorf("%s: %s accepted though it is declared for other workloads", w.name, unmeasured)
			}
			delete(full, unmeasured)
		}
		full["tuner.not_declared"] = 1
		if _, err := full.checked(perLayer, w, true); err == nil {
			t.Errorf("%s: an undeclared metric was accepted", w.name)
		}

		e2e := values{}
		for _, d := range endToEnd {
			e2e[d.Name] = 1
		}
		if _, err := e2e.checked(endToEnd, w, false); err != nil {
			t.Errorf("%s: complete end-to-end values rejected: %v", w.name, err)
		}
		delete(e2e, "setup_s")
		if _, err := e2e.checked(endToEnd, w, false); err == nil {
			t.Errorf("%s: end-to-end values without setup_s accepted", w.name)
		}
	}
}

// benchmarkDoc is BENCHMARK.json; its keys are fixed by the benchmark
// contract.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []docWorkload `json:"workloads"`
	EndToEnd   []docBounded  `json:"end_to_end"`
	PerLayer   []docMetric   `json:"per_layer"`
}

type docWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type docMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type docBounded struct {
	docMetric
	Bound float64 `json:"bound"`
}

// declaredDoc is the BENCHMARK.json the harness's own tables describe.
func declaredDoc() benchmarkDoc {
	doc := benchmarkDoc{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 20}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, docWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, docBounded{docMetric{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, docMetric{d.Name, d.Unit, d.Better})
	}
	return doc
}

// BENCHMARK.json at the root of the repository declares exactly what the
// harness measures. On a mismatch the test prints the document to commit.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := declaredDoc(); !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the harness's tables; it should read:\n%s", out)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 {
		return []float64{m * 0.99, m, m, m * 1.01, m, m, m * 0.995, m, m * 1.005, m}
	}
	noisy := []float64{50, 80, 100, 120, 150, 100, 60, 140, 100, 100}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), "ok"},
		{lower, steady(100), steady(112), "worse"},
		{lower, steady(100), steady(80), "ok"},
		{higher, steady(100), steady(95), "ok"},
		{higher, steady(100), steady(88), "worse"},
		{higher, steady(100), steady(130), "ok"},
		{lower, noisy, steady(150), "unresolved"},
		{lower, steady(100), noisy, "unresolved"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, median %v → %v) = %s, want %s", tc.d.Name, median(tc.a), median(tc.b), got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := dir + "/" + name
		for i := 0; i < 4; i++ {
			res := &result{Header: header{Workload: "search-mixed"}, report: report{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
			for _, d := range endToEnd {
				res.Metrics[d.Name] = metric{Value: 10, Unit: d.Unit}
			}
			res.Metrics["op_ms_p50"] = metric{Value: p50 + float64(i)*0.01, Unit: "ms"}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 100), write("same.jsonl", 101), write("slow.jsonl", 130)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, a, same); err != nil || worse {
		t.Errorf("A/A comparison: worse = %v, err = %v\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, a, slow); err != nil || !worse {
		t.Errorf("30 %% slower p50: worse = %v, err = %v\n%s", worse, err, out.String())
	}
	if !regexp.MustCompile(`search-mixed\s+op_ms_p50\s.*\sworse`).Match(out.Bytes()) {
		t.Errorf("no worse row for op_ms_p50 in:\n%s", out.String())
	}
}

func TestParseProm(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nmario_serve_requests_total 12\n" +
		"mario_search_points_total{outcome=\"explored\"} 7\nmario_serve_request_seconds_bucket{le=\"0.5\"} 3\n\n"
	c := counters{"mario_serve_requests_total": 1}
	if err := parseProm(text, c); err != nil {
		t.Fatal(err)
	}
	want := counters{"mario_serve_requests_total": 13, `mario_search_points_total{outcome="explored"}`: 7,
		`mario_serve_request_seconds_bucket{le="0.5"}`: 3}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("parsed %v, want %v", c, want)
	}
	if d := c.minus(counters{"mario_serve_requests_total": 3}); d["mario_serve_requests_total"] != 10 {
		t.Errorf("minus = %v", d)
	}
	if err := parseProm("novalue\n", counters{}); err == nil {
		t.Error("a line without a value was accepted")
	}
}

func TestRefusal(t *testing.T) {
	busy, draining := refusal(errString("client: server returned 429 Too Many Requests: serve: worker queue full"))
	if !busy || draining {
		t.Errorf("429: busy=%v draining=%v", busy, draining)
	}
	busy, draining = refusal(errString("client: server returned 503 Service Unavailable: serve: server is draining"))
	if busy || !draining {
		t.Errorf("503: busy=%v draining=%v", busy, draining)
	}
}

type errString string

func (e errString) Error() string { return string(e) }
