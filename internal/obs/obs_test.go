package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mario/internal/pipeline"
)

func ev(dev, iter int, k pipeline.Kind, micro int, start, end float64) Event {
	return Event{Instr: pipeline.Instr{Kind: k, Micro: int32(micro)}, Device: dev, Iter: iter, Peer: -1, Start: start, End: end}
}

func TestJSONLRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	in := Event{Instr: pipeline.Instr{Kind: pipeline.RecvAct, Micro: 3, Stage: 2}, Device: 2, Iter: 1, Peer: 1, Start: 0.5, End: 0.75, Wait: 0.1, Bytes: 1024}
	if err := WriteJSONL(&buf, []Event{in, ev(0, 0, pipeline.Forward, 0, 1, 2)}); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid JSONL line: %v", err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["kind"] != "RA" || lines[0]["dev"] != 2.0 || lines[0]["wait"] != 0.1 {
		t.Errorf("unexpected first line: %v", lines[0])
	}
	if lines[1]["kind"] != "FW" {
		t.Errorf("unexpected second line: %v", lines[1])
	}
}

// TestJSONLCommEventsCarryPeer: every comm event's line names its peer, so a
// message from or to device 0 reads differently from an event with no peer.
func TestJSONLCommEventsCarryPeer(t *testing.T) {
	var events []Event
	for _, k := range []pipeline.Kind{pipeline.SendAct, pipeline.RecvAct, pipeline.SendGrad, pipeline.RecvGrad} {
		for _, peer := range []int{0, 1} {
			events = append(events, Event{Instr: pipeline.Instr{Kind: k}, Device: 1 - peer, Peer: peer, Start: 0, End: 1, Bytes: 64})
		}
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for i := 0; sc.Scan(); i++ {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("invalid JSONL line: %v", err)
		}
		if peer, ok := line["peer"]; !ok || peer != float64(events[i].Peer) {
			t.Errorf("%s line %s: peer %v, want %d", events[i].Kind, sc.Bytes(), peer, events[i].Peer)
		}
	}
}

func TestJSONLStickyError(t *testing.T) {
	events := make([]Event, 10000) // enough to overflow the bufio buffer
	for i := range events {
		events[i] = ev(0, 0, pipeline.Forward, i, 0, 1)
	}
	if err := WriteJSONL(failWriter{}, events); err == nil {
		t.Fatal("WriteJSONL should report the write error")
	}
	if err := WriteJSONL(failWriter{}, events[:1]); err == nil {
		t.Fatal("WriteJSONL should report a write error met at the final flush")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "boom" }

func TestComputeStats(t *testing.T) {
	events := []Event{
		ev(0, 0, pipeline.Forward, 0, 0, 1),
		ev(0, 0, pipeline.OptimizerStep, 0, 1, 1.5), // non-p2p counts as busy
		{Instr: pipeline.Instr{Kind: pipeline.SendAct, Micro: 0}, Device: 0, Peer: 1, Start: 1.5, End: 1.5, Bytes: 100},
		{Instr: pipeline.Instr{Kind: pipeline.RecvAct, Micro: 0}, Device: 1, Peer: 0, Start: 0, End: 2, Wait: 2},
		ev(1, 1, pipeline.Backward, 0, 2, 4),
		{Instr: pipeline.Instr{Kind: pipeline.SendAct, Micro: 1}, Device: 0, Peer: 1, Start: 2, End: 2, Bytes: 50},
		{Instr: pipeline.Instr{Kind: pipeline.SendGrad, Micro: 0}, Device: 0, Peer: 1, Start: 2, End: 2, Bytes: 7},
	}
	st := Compute(events, 4)

	if got := events[4].Dur(); got != 2 {
		t.Errorf("Dur = %v, want 2", got)
	}
	if st.Instrs != 7 || st.Msgs != 3 {
		t.Errorf("Instrs=%d Msgs=%d, want 7 and 3", st.Instrs, st.Msgs)
	}
	if st.Iters != 2 {
		t.Errorf("Iters=%d, want 2", st.Iters)
	}
	d0 := st.Devices[0]
	if d0.Busy != 1.5 || d0.Sends != 3 || d0.Recvs != 0 {
		t.Errorf("dev0: busy=%v sends=%d recvs=%d", d0.Busy, d0.Sends, d0.Recvs)
	}
	d1 := st.Devices[1]
	if d1.Busy != 2 || d1.Recvs != 1 || d1.RecvStall != 2 {
		t.Errorf("dev1: busy=%v recvs=%d recvstall=%v", d1.Busy, d1.Recvs, d1.RecvStall)
	}
	if got := st.utilization(1); got != 0.5 {
		t.Errorf("utilization(1)=%v, want 0.5", got)
	}
	if got := st.BubbleRatio(1); got != 0.5 {
		t.Errorf("BubbleRatio(1)=%v, want 0.5", got)
	}
	// Links: 0->1[act] with 2 msgs / 150 bytes, then 0->1[grad].
	if len(st.Links) != 2 {
		t.Fatalf("got %d links, want 2", len(st.Links))
	}
	if l := st.Links[0]; l.Channel != "act" || l.Bytes != 150 || l.Msgs != 2 {
		t.Errorf("act link: %+v", l)
	}
	if l := st.Links[1]; l.Channel != "grad" || l.Bytes != 7 || l.Msgs != 1 {
		t.Errorf("grad link: %+v", l)
	}
	if !strings.Contains(st.Table(), "dev0") {
		t.Error("Table should mention dev0")
	}
}

func TestComputeStatsPeakMem(t *testing.T) {
	events := []Event{
		{Instr: pipeline.Instr{Kind: pipeline.Forward}, Device: 0, Start: 0, End: 1, Mem: 100},
		{Instr: pipeline.Instr{Kind: pipeline.CkptForward, Micro: 1}, Device: 0, Start: 1, End: 2, Mem: 300},
		{Instr: pipeline.Instr{Kind: pipeline.Backward}, Device: 0, Start: 2, End: 3, Mem: 200},
	}
	st := Compute(events, 3)
	d := st.Devices[0]
	if d.PeakMem != 300 || d.PeakKind != pipeline.CkptForward {
		t.Errorf("peak=%v at %s, want 300 at CFW", d.PeakMem, d.PeakKind)
	}
}

func TestComputeDrift(t *testing.T) {
	// Predicted timeline: dev0 runs FW0 for 1s, BW0 for 2s; dev1 runs FW0
	// for 1s. Measured: FW0 on dev0 takes 1.1s and 0.9s over two iterations
	// (mean 1.0 → zero error), BW0 takes 2.5s (25% error vs measured... pred
	// 2, meas 2.5 → |2-2.5|/2.5 = 20%), and dev1 executes an RC where the
	// prediction has its FW.
	pred := []Event{
		{Instr: pipeline.Instr{Kind: pipeline.Forward, Stage: 0}, Device: 0, Start: 0, End: 1},
		{Instr: pipeline.Instr{Kind: pipeline.Backward, Stage: 0}, Device: 0, Start: 1, End: 3},
		{Instr: pipeline.Instr{Kind: pipeline.Forward, Stage: 1}, Device: 1, Start: 0, End: 1},
	}
	events := []Event{
		{Instr: pipeline.Instr{Kind: pipeline.Forward, Stage: 0}, Device: 0, Iter: 0, Start: 0, End: 1.1},
		{Instr: pipeline.Instr{Kind: pipeline.Backward, Stage: 0}, Device: 0, Iter: 0, Start: 1.1, End: 3.6},
		{Instr: pipeline.Instr{Kind: pipeline.Forward, Stage: 0}, Device: 0, Iter: 1, Start: 3, End: 3.9},
		{Instr: pipeline.Instr{Kind: pipeline.Recompute, Stage: 1}, Device: 1, Iter: 0, Start: 0, End: 1},
	}
	r := ComputeDrift(events, pred, []float64{100, 100}, []float64{110, 90})

	if r.UnmatchedMeasured != 1 {
		t.Errorf("UnmatchedMeasured=%d, want 1 (the RC)", r.UnmatchedMeasured)
	}
	if r.UnmatchedPredicted != 1 {
		t.Errorf("UnmatchedPredicted=%d, want 1 (dev1 FW)", r.UnmatchedPredicted)
	}
	var fw, bw *KindDrift
	for i := range r.Kinds {
		switch r.Kinds[i].Kind {
		case pipeline.Forward:
			fw = &r.Kinds[i]
		case pipeline.Backward:
			bw = &r.Kinds[i]
		}
	}
	if fw == nil || bw == nil {
		t.Fatalf("missing kinds in %+v", r.Kinds)
	}
	if fw.Pairs != 1 || math.Abs(fw.MeasMean-1.0) > 1e-9 || fw.MAPE > 1e-9 {
		t.Errorf("FW drift: %+v (measured mean should average to 1.0)", *fw)
	}
	if bw.Pairs != 1 || math.Abs(bw.MAPE-0.2) > 1e-9 {
		t.Errorf("BW drift: %+v, want MAPE 0.2", *bw)
	}
	// Worst offender is the backward (0.5s absolute error).
	if len(r.Worst) == 0 || r.Worst[0].Instr.Kind != pipeline.Backward ||
		math.Abs(r.Worst[0].AbsErr-0.5) > 1e-9 {
		t.Errorf("Worst: %+v", r.Worst)
	}
	// Measured makespan 3.9 over 2 iterations → 1.95 per iteration.
	if math.Abs(r.TotalMeas-1.95) > 1e-9 || r.TotalPred != 3 {
		t.Errorf("TotalMeas=%v TotalPred=%v", r.TotalMeas, r.TotalPred)
	}
	// Memory MAPE: (|100-110|/110 + |100-90|/90) / 2.
	wantMem := (10.0/110 + 10.0/90) / 2
	if math.Abs(r.MemMAPE-wantMem) > 1e-9 {
		t.Errorf("MemMAPE=%v, want %v", r.MemMAPE, wantMem)
	}
	out := r.Format()
	for _, want := range []string{"drift report", "FW", "BW", "worst offenders", "unmatched sites"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestEventMarshalJSON(t *testing.T) {
	e := Event{Instr: pipeline.Instr{Kind: pipeline.CkptForward, Micro: 2, Stage: 1}, Device: 1, Peer: -1, Start: 1, End: 2}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"CFW"`) {
		t.Errorf("marshalled event should carry the kind mnemonic: %s", b)
	}
}
