package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModelPresetsValidate(t *testing.T) {
	for name, m := range Models {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestModelValidateRejects(t *testing.T) {
	bad := []ModelConfig{
		{Name: "h0", Hidden: 0, Layers: 1, Heads: 1, SeqLen: 1, Vocab: 1},
		{Name: "l0", Hidden: 64, Layers: 0, Heads: 1, SeqLen: 1, Vocab: 1},
		{Name: "heads", Hidden: 65, Layers: 1, Heads: 2, SeqLen: 1, Vocab: 1},
		{Name: "seq", Hidden: 64, Layers: 1, Heads: 2, SeqLen: 0, Vocab: 1},
		{Name: "vocab", Hidden: 64, Layers: 1, Heads: 2, SeqLen: 8, Vocab: 0},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.Name)
		}
	}
}

// TestTotalParamsMatchesNames: the preset names reflect their approximate
// parameter counts.
func TestTotalParamsMatchesNames(t *testing.T) {
	cases := []struct {
		m    ModelConfig
		want float64 // billions
		tol  float64
	}{
		{GPT3_1_6B, 1.6e9, 0.3e9},
		{GPT3_13B, 13e9, 1.5e9},
		{LLaMA2_3B, 3e9, 0.5e9},
		{LLaMA2_13B, 13e9, 1.5e9},
	}
	for _, tc := range cases {
		if got := tc.m.TotalParams(); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%s: params = %.2fB, want ≈%.1fB", tc.m.Name, got/1e9, tc.want/1e9)
		}
	}
}

func TestPartition(t *testing.T) {
	if got := Partition(128, 32); len(got) != 32 || got[0] != 4 || got[31] != 4 {
		t.Errorf("Partition(128,32) = %v", got)
	}
	got := Partition(10, 4)
	sum := 0
	for i, g := range got {
		sum += g
		if i > 0 && g > got[i-1] {
			t.Errorf("Partition remainder should go to earliest stages: %v", got)
		}
	}
	if sum != 10 {
		t.Errorf("Partition(10,4) sums to %d", sum)
	}
}

func TestPartitionProperty(t *testing.T) {
	f := func(lRaw, sRaw uint8) bool {
		s := int(sRaw)%8 + 1
		l := s + int(lRaw)%64
		parts := Partition(l, s)
		sum, lo, hi := 0, parts[0], parts[0]
		for _, p := range parts {
			sum += p
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
		return sum == l && hi-lo <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for layers < stages")
		}
	}()
	Partition(3, 4)
}

func TestAnalyticBasics(t *testing.T) {
	e, err := Analytic(AnalyticConfig{Model: GPT3_1_6B, HW: A100_40G, Stages: 8, MicroBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stages != 8 || len(e.FwTime) != 8 {
		t.Fatalf("estimator stage mismatch: %+v", e)
	}
	for st := 0; st < 8; st++ {
		if e.FwTime[st] <= 0 || e.BwTime[st] <= e.FwTime[st] {
			t.Errorf("stage %d: fw=%v bw=%v; want 0 < fw < bw", st, e.FwTime[st], e.BwTime[st])
		}
		if e.ActStash[st] >= e.ActFull[st] {
			t.Errorf("stage %d: stash %v not below full activation %v", st, e.ActStash[st], e.ActFull[st])
		}
	}
	// Embedding weights boost the first and last stages.
	if e.WeightBytes[0] <= e.WeightBytes[1] || e.WeightBytes[7] <= e.WeightBytes[1] {
		t.Errorf("embedding stages not heavier: %v", e.WeightBytes)
	}
	// The LM head makes the last stage's forward slower.
	if e.FwTime[7] <= e.FwTime[1] {
		t.Errorf("LM-head stage not slower: %v vs %v", e.FwTime[7], e.FwTime[1])
	}
}

// TestAnalyticScalesWithMicroBatch: doubling the micro-batch size doubles
// activation memory; compute time grows sub-linearly (between 1.5× and 2×)
// because larger batches raise kernel utilisation — the effect that makes
// the paper's lmbs configurations profitable.
func TestAnalyticScalesWithMicroBatch(t *testing.T) {
	e1, _ := Analytic(AnalyticConfig{Model: LLaMA2_3B, HW: A100_40G, Stages: 8, MicroBatch: 1})
	e2, _ := Analytic(AnalyticConfig{Model: LLaMA2_3B, HW: A100_40G, Stages: 8, MicroBatch: 2})
	if r := e2.FwTime[1] / e1.FwTime[1]; r < 1.5 || r > 2 {
		t.Errorf("fw time ratio = %v, want in [1.5, 2]", r)
	}
	if r := e2.ActFull[1] / e1.ActFull[1]; math.Abs(r-2) > 1e-9 {
		t.Errorf("activation ratio = %v, want 2", r)
	}
	// Per-sample time must improve with the larger micro-batch.
	if perSample1, perSample2 := e1.FwTime[1], e2.FwTime[1]/2; perSample2 >= perSample1 {
		t.Errorf("per-sample fw time did not improve: %v vs %v", perSample2, perSample1)
	}
}

// TestAnalyticTPReducesLoad: TP=2 halves per-stage compute (modulo the
// collective overhead) and activation memory.
func TestAnalyticTPReducesLoad(t *testing.T) {
	e1, _ := Analytic(AnalyticConfig{Model: GPT3_1_6B, HW: A100_40G, Stages: 8, MicroBatch: 1, TP: 1})
	e2, _ := Analytic(AnalyticConfig{Model: GPT3_1_6B, HW: A100_40G, Stages: 8, MicroBatch: 1, TP: 2})
	if e2.ActFull[1] >= e1.ActFull[1]*0.6 {
		t.Errorf("TP=2 activation %v not roughly half of %v", e2.ActFull[1], e1.ActFull[1])
	}
	if e2.WeightBytes[1] >= e1.WeightBytes[1]*0.6 {
		t.Errorf("TP=2 weights %v not roughly half of %v", e2.WeightBytes[1], e1.WeightBytes[1])
	}
	if e2.FwTime[1] >= e1.FwTime[1] {
		t.Errorf("TP=2 forward %v not below TP=1 %v", e2.FwTime[1], e1.FwTime[1])
	}
}

func TestAnalyticErrors(t *testing.T) {
	if _, err := Analytic(AnalyticConfig{Model: GPT3_1_6B, HW: A100_40G, Stages: 0, MicroBatch: 1}); err == nil {
		t.Error("stages=0 accepted")
	}
	if _, err := Analytic(AnalyticConfig{Model: GPT3_1_6B, HW: A100_40G, Stages: 8, MicroBatch: 0}); err == nil {
		t.Error("mbs=0 accepted")
	}
	if _, err := Analytic(AnalyticConfig{Model: LLaMA2_3B, HW: A100_40G, Stages: 128, MicroBatch: 1}); err == nil {
		t.Error("more stages than layers accepted")
	}
	bad := GPT3_1_6B
	bad.Hidden = 0
	if _, err := Analytic(AnalyticConfig{Model: bad, HW: A100_40G, Stages: 4, MicroBatch: 1}); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestCommTime(t *testing.T) {
	e := &Estimator{LinkBandwidth: 1e9, LinkLatency: 1e-6}
	if got, want := e.CommTime(1e9), 1.000001; math.Abs(got-want) > 1e-9 {
		t.Errorf("CommTime = %v, want %v", got, want)
	}
}

func TestAllReduceTime(t *testing.T) {
	e := &Estimator{LinkBandwidth: 1e9, WeightBytes: []float64{16e9, 16e9}}
	if got := e.AllReduceTime(1, []int{0}); got != 0 {
		t.Errorf("dp=1 all-reduce = %v, want 0", got)
	}
	// dp=2: 2*(1/2)*gradBytes/bw; gradBytes = 16e9 * 2/16 = 2e9 → 2s·(1/2)·2=2
	if got, want := e.AllReduceTime(2, []int{0}), 2.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("dp=2 all-reduce = %v, want %v", got, want)
	}
	// More stages on the device → proportionally more gradient traffic.
	if got := e.AllReduceTime(2, []int{0, 1}); math.Abs(got-4.0) > 1e-9 {
		t.Errorf("two-stage all-reduce = %v, want 4", got)
	}
}

func TestWithHelpers(t *testing.T) {
	m := GPT3_1_6B.WithSeqLen(2048)
	if m.SeqLen != 2048 || m.Name == GPT3_1_6B.Name {
		t.Errorf("WithSeqLen produced %+v", m)
	}
	m2 := GPT3_1_6B.WithHidden(512)
	if m2.Hidden != 512 || m2.Name == GPT3_1_6B.Name {
		t.Errorf("WithHidden produced %+v", m2)
	}
}

func TestUniform(t *testing.T) {
	e := Uniform(4, 1, 2, 0.25)
	if e.CommTime(0) != 0 {
		t.Errorf("uniform comm should be free, got %v", e.CommTime(0))
	}
	for i := 0; i < 4; i++ {
		if e.FwTime[i] != 1 || e.BwTime[i] != 2 {
			t.Errorf("stage %d times wrong: %v %v", i, e.FwTime[i], e.BwTime[i])
		}
	}
}

func TestH100Preset(t *testing.T) {
	if H100_80G.FLOPS <= A100_40G.FLOPS || H100_80G.MemBytes <= A100_40G.MemBytes {
		t.Error("H100 preset should dominate A100")
	}
	// The preset drives a valid estimator.
	if _, err := Analytic(AnalyticConfig{Model: GPT3_13B, HW: H100_80G, Stages: 16, MicroBatch: 2}); err != nil {
		t.Fatal(err)
	}
}
