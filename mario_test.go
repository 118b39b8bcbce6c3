package mario_test

import (
	"math"
	"strings"
	"testing"

	"mario"
)

func TestParseMemory(t *testing.T) {
	cases := map[string]float64{
		"40G":   40 * (1 << 30),
		"40GB":  40 * (1 << 30),
		"512M":  512 * (1 << 20),
		"1T":    1 << 40,
		"2048K": 2048 * (1 << 10),
		"123":   123,
	}
	for in, want := range cases {
		got, err := mario.ParseMemory(in)
		if err != nil || math.Abs(got-want) > 0.5 {
			t.Errorf("ParseMemory(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "-4G", "0"} {
		if _, err := mario.ParseMemory(bad); err == nil {
			t.Errorf("ParseMemory(%q) should fail", bad)
		}
	}
}

func TestModelPresets(t *testing.T) {
	m := mario.Model("GPT3-13B")
	if m.Hidden != 3000 || m.Layers != 128 {
		t.Errorf("GPT3-13B preset wrong: %+v", m)
	}
	if len(mario.Models()) != 4 {
		t.Errorf("expected 4 presets, got %d", len(mario.Models()))
	}
	defer func() {
		if recover() == nil {
			t.Error("Model with unknown name should panic")
		}
	}()
	mario.Model("nope")
}

func TestOptimizeAndRunEndToEnd(t *testing.T) {
	plan, err := mario.Optimize(mario.Config{
		PipelineScheme:  "Auto",
		GlobalBatchSize: 16,
		NumDevices:      4,
		MemoryPerDevice: "40G",
		MicroBatchSizes: []int{1, 2},
	}, mario.Model("LLaMA2-3B"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best.Throughput <= 0 {
		t.Fatalf("best throughput %v", plan.Best.Throughput)
	}
	if len(plan.Trace) == 0 {
		t.Fatal("empty tuning trace")
	}
	rep, err := mario.Run(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SamplesPerSec <= 0 || rep.PeakMemMax <= rep.PeakMemMin {
		if rep.PeakMemMax < rep.PeakMemMin {
			t.Errorf("report inconsistent: %+v", rep)
		}
	}
	// The measured throughput should be within 25% of the estimate (Fig 10
	// territory).
	rel := math.Abs(rep.SamplesPerSec-plan.Best.Throughput) / plan.Best.Throughput
	if rel > 0.25 {
		t.Errorf("measured %v vs estimated %v: relative error %v", rep.SamplesPerSec, plan.Best.Throughput, rel)
	}
	var sb strings.Builder
	if err := mario.Visualize(&sb, plan); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dev0") {
		t.Error("visualization missing device rows")
	}
}

func TestOptimizeForcedScheme(t *testing.T) {
	ckpt := true
	plan, err := mario.Optimize(mario.Config{
		PipelineScheme:  "V",
		GlobalBatchSize: 16,
		NumDevices:      4,
		MemoryPerDevice: "40G",
		MicroBatchSizes: []int{2},
		Checkpoint:      &ckpt,
	}, mario.Model("LLaMA2-3B"))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Best.Ckpt || plan.Best.Scheme.Shape() != "V" {
		t.Errorf("constraints not honoured: %+v", plan.Best)
	}
}

func TestOptimizeValidation(t *testing.T) {
	model := mario.Model("GPT3-1.6B")
	if _, err := mario.Optimize(mario.Config{GlobalBatchSize: 8}, model); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := mario.Optimize(mario.Config{NumDevices: 4, GlobalBatchSize: 8, MemoryPerDevice: "junk"}, model); err == nil {
		t.Error("bad memory spec accepted")
	}
	if _, err := mario.Optimize(mario.Config{NumDevices: 4, GlobalBatchSize: 8, PipelineScheme: "Q"}, model); err == nil {
		t.Error("bad scheme accepted")
	}
	bad := model
	bad.Hidden = 0
	if _, err := mario.Optimize(mario.Config{NumDevices: 4, GlobalBatchSize: 8}, bad); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestBuildScheduleAndCheckpoint(t *testing.T) {
	s, err := mario.BuildSchedule("X", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumDevices() != 4 || s.Micros != 8 {
		t.Errorf("schedule shape wrong: %d devices, %d micros", s.NumDevices(), s.Micros)
	}
	opt, err := mario.Checkpoint(s)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Checkpointed {
		t.Error("Checkpoint did not mark the schedule")
	}
	if s.Checkpointed {
		t.Error("Checkpoint mutated its input")
	}
	if _, err := mario.BuildSchedule("nope", 4, 8); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := mario.Checkpoint(nil); err == nil {
		t.Error("nil schedule accepted")
	}
}

func TestRenderers(t *testing.T) {
	s, err := mario.BuildSchedule("1F1B", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	chart, err := mario.Render(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "F") || !strings.Contains(chart, "B") {
		t.Errorf("chart missing glyphs:\n%s", chart)
	}
	var svg strings.Builder
	if err := mario.RenderSVG(&svg, s); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg.String(), "<svg") {
		t.Error("SVG malformed")
	}
	var tr strings.Builder
	if err := mario.RenderChromeTrace(&tr, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "traceEvents") {
		t.Error("trace malformed")
	}
}

func TestTrainerThroughPublicAPI(t *testing.T) {
	tr, err := mario.NewTrainer(mario.TrainConfig{
		Devices: 2, BlocksPerStage: 1, Dim: 8, SeqLen: 4,
		Micros: 4, BatchPerMicro: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := mario.BuildSchedule("1F1B", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.RunIteration(s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loss <= 0 {
		t.Errorf("loss = %v", st.Loss)
	}
}

func TestSaveLoadSchedule(t *testing.T) {
	s, err := mario.BuildSchedule("1F1B", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := mario.Checkpoint(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := mario.SaveSchedule(&buf, opt); err != nil {
		t.Fatal(err)
	}
	got, err := mario.LoadSchedule(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDevices() != 4 || got.Micros != 8 || !got.Checkpointed {
		t.Errorf("round-trip header mismatch: %d devices, %d micros, ckpt=%v",
			got.NumDevices(), got.Micros, got.Checkpointed)
	}
	// The loaded schedule is executable: run it on the miniature trainer
	// and compare against the in-memory original.
	run := func(sched *mario.Schedule) float64 {
		tr, err := mario.NewTrainer(mario.TrainConfig{
			Devices: 4, BlocksPerStage: 1, Dim: 8, SeqLen: 4,
			Micros: 8, BatchPerMicro: 1, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := tr.RunIteration(sched)
		if err != nil {
			t.Fatal(err)
		}
		return st.Loss
	}
	if a, b := run(opt), run(got); a != b {
		t.Errorf("loaded schedule trains differently: %v vs %v", a, b)
	}
	if err := mario.SaveSchedule(&buf, nil); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := mario.LoadSchedule(strings.NewReader("{")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSplitBackwardPublicAPI(t *testing.T) {
	s, err := mario.BuildSchedule("1F1B", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	split, err := mario.SplitBackward(s)
	if err != nil {
		t.Fatal(err)
	}
	chart, err := mario.Render(split)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "b") || !strings.Contains(chart, "w") {
		t.Errorf("split glyphs missing:\n%s", chart)
	}
	if _, err := mario.SplitBackward(nil); err == nil {
		t.Error("nil schedule accepted")
	}
}
