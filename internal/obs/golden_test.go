package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mario/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestJSONLGolden locks the JSONL event wire format to a golden file:
// downstream pipelines parse these lines, so field names, omitempty
// behaviour and number formatting may only change deliberately.
func TestJSONLGolden(t *testing.T) {
	events := []Event{
		{Instr: pipeline.Instr{Kind: pipeline.Forward, Micro: 0, Stage: 0}, Device: 0, Iter: 0, Peer: -1, Start: 0, End: 1.25, Mem: 2048},
		{Instr: pipeline.Instr{Kind: pipeline.CkptForward, Micro: 1, Stage: 0}, Device: 0, Iter: 0, Peer: -1, Start: 1.25, End: 2.5, Mem: 2304},
		{Instr: pipeline.Instr{Kind: pipeline.SendAct, Micro: 0, Stage: 0, Buffered: true}, Device: 0, Iter: 0, Peer: 1, Start: 2.5, End: 2.75, Bytes: 512},
		{Instr: pipeline.Instr{Kind: pipeline.RecvAct, Micro: 0, Part: 1, Stage: 1}, Device: 1, Iter: 0, Peer: 0, Start: 0, End: 2.75, Wait: 2.5, Bytes: 512},
		{Instr: pipeline.Instr{Kind: pipeline.Recompute, Micro: 0, Stage: 1}, Device: 1, Iter: 0, Peer: -1, Start: 2.75, End: 3.75},
		{Instr: pipeline.Instr{Kind: pipeline.OptimizerStep, Micro: pipeline.NoMicro, Stage: -1}, Device: 1, Iter: 1, Peer: -1, Start: 4, End: 4.5},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "events.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/obs -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSONL export drifted from golden file.\n got: %s\nwant: %s\nIf the change is intentional, regenerate with -update and call it out in review.",
			buf.Bytes(), want)
	}
}
