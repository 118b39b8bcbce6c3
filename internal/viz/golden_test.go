package viz

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mario/internal/cost"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name>, rewriting the file when
// -update is set. Export formats are consumed by external tooling (Perfetto,
// chrome://tracing, JSONL pipelines), so any byte-level change must be a
// conscious review decision, not a drive-by.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/viz -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n got: %s\nwant: %s\nIf the change is intentional, regenerate with -update and call it out in review.",
			name, got, want)
	}
}

// goldenTimeline simulates a tiny deterministic pipeline for the predicted
// export: 2-device 1F1B, 2 micro-batches, Fig. 2's F=1,B=2 grid world.
func goldenTimeline(t *testing.T) []obs.Event {
	t.Helper()
	s, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 2, Micros: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Simulate(s, cost.Uniform(2, 1, 2, 0.25), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Timeline
}

// goldenEvents is a hand-written measured event stream covering the optional
// fields (wait, memory, buffered sends) of the export.
func goldenEvents() []obs.Event {
	return []obs.Event{
		{Instr: pipeline.Instr{Kind: pipeline.Forward, Micro: 0, Stage: 0}, Device: 0, Iter: 0, Peer: -1, Start: 0, End: 1.25, Mem: 2048},
		{Instr: pipeline.Instr{Kind: pipeline.SendAct, Micro: 0, Stage: 0, Buffered: true}, Device: 0, Iter: 0, Peer: 1, Start: 1.25, End: 1.5, Bytes: 512},
		{Instr: pipeline.Instr{Kind: pipeline.RecvAct, Micro: 0, Stage: 1}, Device: 1, Iter: 0, Peer: 0, Start: 0, End: 1.5, Wait: 1.25, Bytes: 512},
		{Instr: pipeline.Instr{Kind: pipeline.Backward, Micro: 0, Stage: 1}, Device: 1, Iter: 0, Peer: -1, Start: 1.5, End: 4, Mem: 1024},
		{Instr: pipeline.Instr{Kind: pipeline.OptimizerStep, Micro: pipeline.NoMicro, Stage: -1}, Device: 1, Iter: 1, Peer: -1, Start: 4, End: 4.5},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, goldenTimeline(t)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_trace.golden.json", buf.Bytes())
}

func TestChromeTraceMeasuredGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_trace_measured.golden.json", buf.Bytes())
}
