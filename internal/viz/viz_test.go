package viz

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

func sample(t *testing.T) (*pipeline.Schedule, *sim.Result) {
	t.Helper()
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 4, Micros: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Simulate(s, cost.Uniform(4, 1, 2, 0.25), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestASCIIContainsAllDevices(t *testing.T) {
	_, r := sample(t)
	out := ASCII(r.Timeline, 1)
	for _, want := range []string{"dev0", "dev3", "F", "B", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII output missing %q:\n%s", want, out)
		}
	}
	// Warmup staircase: device 3 starts later than device 0, so its row has
	// leading blanks inside the frame.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[3], "| ") {
		t.Errorf("device 3 should start with a bubble:\n%s", out)
	}
}

func TestASCIIShowsRecompute(t *testing.T) {
	s, _ := sample(t)
	opt, r, err := graph.Optimize(s, graph.Options{Estimator: cost.Uniform(4, 1, 2, 0.25)})
	if err != nil {
		t.Fatal(err)
	}
	_ = opt
	out := ASCII(r.Timeline, 1)
	if !strings.Contains(out, "R") || !strings.Contains(out, "C") {
		t.Errorf("checkpointed timeline missing R/C glyphs:\n%s", out)
	}
}

func TestSVGWellFormed(t *testing.T) {
	_, r := sample(t)
	var buf bytes.Buffer
	if err := SVG(&buf, r.Timeline); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Error("SVG output not well formed")
	}
	if strings.Count(out, "<rect") < 8 {
		t.Errorf("SVG has too few rects:\n%s", out[:200])
	}
	if err := SVG(&buf, nil); err == nil {
		t.Error("empty timeline accepted")
	}
}

func TestChromeTraceParses(t *testing.T) {
	_, r := sample(t)
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, r.Timeline); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	seenPID3 := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %s has phase %q", ev.Name, ev.Ph)
		}
		if ev.PID == 3 {
			seenPID3 = true
		}
	}
	if !seenPID3 {
		t.Error("device 3 missing from trace")
	}
}

// TestEmptyTracesListNoEvents: a trace with nothing in it, a record stream
// or a search's span tree, is an empty event list, not null.
func TestEmptyTracesListNoEvents(t *testing.T) {
	for name, write := range map[string]func(w *bytes.Buffer) error{
		"ChromeTrace":               func(w *bytes.Buffer) error { return ChromeTrace(w, nil) },
		"SearchChromeTrace":         func(w *bytes.Buffer) error { return SearchChromeTrace(w, &telemetry.Trace{}) },
		"SearchChromeTraceMeasured": func(w *bytes.Buffer) error { return SearchChromeTraceMeasured(w, &telemetry.Trace{}) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != "{\"traceEvents\":[]}\n" {
			t.Errorf("%s of nothing wrote %q", name, got)
		}
	}
}
