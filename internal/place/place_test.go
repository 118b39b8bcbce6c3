package place

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"", ModeAuto, true},
		{"auto", ModeAuto, true},
		{"  Uniform ", ModeUniform, true},
		{"COOPT", ModeCoOpt, true},
		{"greedy", "", false},
	}
	for _, tc := range cases {
		got, err := ParseMode(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseMode(%q) accepted", tc.in)
		}
	}
}

func TestParseSpeeds(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		devices int
		want    []float64
		wantErr string
	}{
		{"empty", "", 4, nil, ""},
		{"full list", "1,0.8,1,1", 4, []float64{1, 0.8, 1, 1}, ""},
		{"full list spaces", " 1 , 0.8 , 1 , 1 ", 4, []float64{1, 0.8, 1, 1}, ""},
		{"all ones collapses", "1,1,1,1", 4, nil, ""},
		{"wrong count", "1,0.8", 4, nil, "2 speed entries for 4 devices"},
		{"bad float", "1,x,1,1", 4, nil, "speed entry"},
		{"nonpositive", "1,0,1,1", 4, nil, "must be positive"},
		{"sparse", "2=0.8", 4, []float64{1, 1, 0.8, 1}, ""},
		{"sparse multi", "1=0.9, 3=0.75", 4, []float64{1, 0.9, 1, 0.75}, ""},
		{"sparse all ones collapses", "2=1", 4, nil, ""},
		{"sparse out of range", "4=0.8", 4, nil, "out of range"},
		{"sparse negative index", "-1=0.8", 4, nil, "out of range"},
		{"sparse bad speed", "2=fast", 4, nil, "bad speed"},
		{"sparse nonpositive", "2=-0.5", 4, nil, "must be positive"},
		{"infinite slowdown", "1,1e-310,1,1", 4, nil, "slowdown 1/speed is not finite"},
		{"sparse infinite slowdown", "3=1e-310", 4, nil, "slowdown 1/speed is not finite"},
		{"smallest finite slowdown", "1,1e-308,1,1", 4, []float64{1, 1e-308, 1, 1}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseSpeeds(tc.spec, tc.devices)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseSpeeds(%q) err = %v, want containing %q", tc.spec, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseSpeeds(%q): %v", tc.spec, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ParseSpeeds(%q) = %v, want %v", tc.spec, got, tc.want)
			}
		})
	}
}

// FuzzParseSpeeds: ParseSpeeds never panics, and a spec it accepts is either
// homogeneous (nil) or exactly devices finite, positive speeds with finite
// slowdowns, not all of them nominal.
func FuzzParseSpeeds(f *testing.F) {
	for _, c := range []struct {
		spec    string
		devices int16
	}{
		{"", 4}, {"1,0.8,1,1", 4}, {" 1 , 0.8 , 1 , 1 ", 4}, {"1,1,1,1", 4}, {"1,0.8", 4}, {"1,x,1,1", 4},
		{"1,0,1,1", 4}, {"2=0.8", 4}, {"1=0.9, 3=0.75", 4}, {"2=1", 4}, {"4=0.8", 4}, {"-1=0.8", 4},
		{"2=fast", 4}, {"2=-0.5", 4}, {"1,NaN", 2}, {"0=inf", 1}, {"0=1e-310", 1}, {"0.5", 0}, {"0=0.5", -3},
	} {
		f.Add(c.spec, c.devices)
	}
	f.Fuzz(func(t *testing.T, spec string, devices int16) {
		got, err := ParseSpeeds(spec, int(devices))
		if err != nil || got == nil {
			return
		}
		if len(got) != int(devices) {
			t.Fatalf("ParseSpeeds(%q, %d) returned %d entries", spec, devices, len(got))
		}
		for _, v := range got {
			if !(v > 0) || math.IsInf(v, 0) || math.IsInf(1/v, 0) {
				t.Fatalf("ParseSpeeds(%q, %d) accepted speed %v", spec, devices, v)
			}
		}
		if Homogeneous(got) {
			t.Fatalf("ParseSpeeds(%q, %d) returned the nominal list %v instead of nil", spec, devices, got)
		}
	})
}

func TestHomogeneous(t *testing.T) {
	if !Homogeneous(nil) || !Homogeneous([]float64{1, 1}) {
		t.Error("nominal lists must report homogeneous")
	}
	if Homogeneous([]float64{1, 0.8}) {
		t.Error("0.8 entry reported homogeneous")
	}
}

func TestRankSpeeds(t *testing.T) {
	if RankSpeeds(nil, 4, 2) != nil {
		t.Error("nil speeds must collapse to nil")
	}
	// pp=2, dp=2: replica 0 on devices {0,1}, replica 1 on {2,3}. Rank r is
	// gated by the slowest of its replicas.
	got := RankSpeeds([]float64{1, 0.9, 0.8, 1}, 2, 2)
	want := []float64{0.8, 0.9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RankSpeeds = %v, want %v", got, want)
	}
	// Missing and non-positive entries count as nominal.
	got = RankSpeeds([]float64{0.5, -1}, 2, 2)
	want = []float64{0.5, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RankSpeeds short list = %v, want %v", got, want)
	}
}

func TestUniform(t *testing.T) {
	pl := pipeline.Linear(4)
	a := Uniform(14, pl, []float64{1, 1, 0.8, 1})
	if !reflect.DeepEqual(a.LayersPerStage, cost.Partition(14, 4)) {
		t.Errorf("uniform split = %v", a.LayersPerStage)
	}
	if !reflect.DeepEqual(a.DeviceOf, []int{0, 1, 2, 3}) {
		t.Errorf("uniform placement = %v, want identity", a.DeviceOf)
	}
	if !reflect.DeepEqual(a.RankSpeed, []float64{1, 1, 0.8, 1}) {
		t.Errorf("uniform rank speeds = %v", a.RankSpeed)
	}
	if Uniform(14, pl, nil).RankSpeed != nil {
		t.Error("homogeneous uniform must carry nil speeds")
	}
}

// skewedModel builds a 12-layer stack where the first layer carries an extra
// embedding-like load and the last an extra LM-head-like load.
func skewedModel() *LayerModel {
	lm := &LayerModel{Work: make([]float64, 12), WeightBytes: make([]float64, 12)}
	for l := range lm.Work {
		lm.Work[l] = 1
		lm.WeightBytes[l] = 1e9
	}
	lm.Work[0] += 2  // embedding
	lm.Work[11] += 3 // LM head
	lm.WeightBytes[0] += 2e9
	lm.WeightBytes[11] += 2e9
	return lm
}

// bottleneck computes the max per-stage duration of a partition under the
// assignment's rank speeds.
func bottleneck(lm *LayerModel, a *Assignment) float64 {
	var worst float64
	l := 0
	for st, n := range a.LayersPerStage {
		var w float64
		for i := 0; i < n; i++ {
			w += lm.Work[l]
			l++
		}
		speed := 1.0
		if st < len(a.RankSpeed) && a.RankSpeed[st] > 0 {
			speed = a.RankSpeed[st]
		}
		if d := w / speed; d > worst {
			worst = d
		}
	}
	return worst
}

// TestCoOptimizeBalancesSkewedStack: on a homogeneous cluster the DP must
// shrink the embedding-heavy first and LM-head-heavy last stages, strictly
// beating the uniform split's bottleneck, with identity placement.
func TestCoOptimizeBalancesSkewedStack(t *testing.T) {
	lm := skewedModel()
	pl := pipeline.Linear(4)
	a, err := CoOptimize(lm, pl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range a.LayersPerStage {
		total += n
	}
	if total != 12 {
		t.Fatalf("partition %v does not cover 12 layers", a.LayersPerStage)
	}
	if !reflect.DeepEqual(a.DeviceOf, []int{0, 1, 2, 3}) {
		t.Errorf("homogeneous co-opt moved devices: %v", a.DeviceOf)
	}
	if a.RankSpeed != nil {
		t.Errorf("homogeneous co-opt carries speeds: %v", a.RankSpeed)
	}
	uni := Uniform(12, pl, nil)
	if got, base := bottleneck(lm, a), bottleneck(lm, uni); !(got < base) {
		t.Errorf("co-opt bottleneck %g does not beat uniform %g (partition %v)", got, base, a.LayersPerStage)
	}
	if a.LayersPerStage[0] >= 3 || a.LayersPerStage[3] >= 3 {
		t.Errorf("boundary stages not offloaded: %v", a.LayersPerStage)
	}
}

// TestCoOptimizeHetero: with one slow speed slot, the fixpoint must route the
// lightest stage load onto it and strictly beat the uniform identity
// baseline's bottleneck. Two runs on the same inputs must agree exactly.
func TestCoOptimizeHetero(t *testing.T) {
	lm := skewedModel()
	pl := pipeline.Linear(4)
	speeds := []float64{1, 1, 0.5, 1}
	a, err := CoOptimize(lm, pl, speeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoOptimize(lm, pl, speeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("co-optimize not deterministic: %+v vs %+v", a, b)
	}
	// The slow slot (device 2) must play the rank with the smallest load.
	slowRank := -1
	for r, d := range a.DeviceOf {
		if d == 2 {
			slowRank = r
		}
	}
	if slowRank < 0 {
		t.Fatalf("DeviceOf %v is not a permutation", a.DeviceOf)
	}
	if a.RankSpeed[slowRank] != 0.5 {
		t.Errorf("rank %d on slow slot has speed %g", slowRank, a.RankSpeed[slowRank])
	}
	loads := stageLoads(lm, a.LayersPerStage)
	for r, w := range loads {
		if w < loads[slowRank]-1e-12 {
			t.Errorf("rank %d load %g lighter than slow rank's %g", r, w, loads[slowRank])
		}
	}
	uni := Uniform(12, pl, RankSpeeds(speeds, 4, 1))
	if got, base := bottleneck(lm, a), bottleneck(lm, uni); !(got < base) {
		t.Errorf("hetero co-opt bottleneck %g does not beat uniform %g", got, base)
	}
}

// stageLoads sums each stage's layer work under a partition.
func stageLoads(lm *LayerModel, part []int) []float64 {
	loads := make([]float64, len(part))
	l := 0
	for st, n := range part {
		for i := 0; i < n; i++ {
			loads[st] += lm.Work[l]
			l++
		}
	}
	return loads
}

// TestCoOptimizeMemCap: a cap that cannot hold the unconstrained optimum
// steers the DP to a feasible partition; an infeasible cap falls back to the
// even split so the tuner's own memory checks reject the point downstream.
func TestCoOptimizeMemCap(t *testing.T) {
	lm := skewedModel() // 1e9 bytes/layer + 2e9 extra on layers 0 and 11
	pl := pipeline.Linear(4)
	// 4.5e9 budget per stage: at most 4 plain layers, at most 2 with a heavy
	// boundary layer in the stage.
	a, err := CoOptimize(lm, pl, nil, Options{MemCap: 5e9, FrameworkMem: 0.5e9})
	if err != nil {
		t.Fatal(err)
	}
	l := 0
	for st, n := range a.LayersPerStage {
		var b float64
		for i := 0; i < n; i++ {
			b += lm.WeightBytes[l]
			l++
		}
		if b > 4.5e9 {
			t.Errorf("stage %d holds %g bytes over the 4.5e9 budget (partition %v)", st, b, a.LayersPerStage)
		}
	}
	// No partition fits 1e9-per-layer stacks in a 0.1e9 budget.
	a, err = CoOptimize(lm, pl, nil, Options{MemCap: 0.1e9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.LayersPerStage, cost.Partition(12, 4)) {
		t.Errorf("infeasible cap did not fall back to the even split: %v", a.LayersPerStage)
	}
}

func TestCoOptimizeErrors(t *testing.T) {
	lm := &LayerModel{Work: []float64{1, 1}, WeightBytes: []float64{1, 1}}
	pl := pipeline.Linear(4)
	if _, err := CoOptimize(lm, pl, nil, Options{}); err == nil {
		t.Error("2 layers over 4 stages accepted")
	}
	lm12 := skewedModel()
	if _, err := CoOptimize(lm12, pl, []float64{1, 1}, Options{}); err == nil {
		t.Error("wrong rank-speed length accepted")
	}
}

// TestCoOptimizeInterleaved: on an interleaved placement each device owns
// several stages; the memory budget is split across them and the result still
// covers every layer exactly once.
func TestCoOptimizeInterleaved(t *testing.T) {
	lm := skewedModel()
	pl := pipeline.Interleaved(2, 2)
	a, err := CoOptimize(lm, pl, []float64{1, 0.8}, Options{MemCap: 20e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.LayersPerStage) != 4 {
		t.Fatalf("want 4 stages, got %v", a.LayersPerStage)
	}
	total := 0
	for _, n := range a.LayersPerStage {
		if n < 1 {
			t.Fatalf("empty stage in %v", a.LayersPerStage)
		}
		total += n
	}
	if total != 12 {
		t.Errorf("partition %v does not cover 12 layers", a.LayersPerStage)
	}
	if len(a.DeviceOf) != 2 || len(a.RankSpeed) != 2 {
		t.Errorf("placement sized %d/%d, want per-device 2", len(a.DeviceOf), len(a.RankSpeed))
	}
}

// TestNewLayerModelFromEstimator: a Stages==Layers estimator maps one stage
// per layer, so the boundary extras land on the first and last entries.
func TestNewLayerModelFromEstimator(t *testing.T) {
	model := cost.LLaMA2_3B
	part := make([]int, model.Layers)
	for i := range part {
		part[i] = 1
	}
	e, err := cost.Analytic(cost.AnalyticConfig{
		Model: model, HW: cost.A100_40G, Stages: model.Layers, MicroBatch: 1, Partition: part,
	})
	if err != nil {
		t.Fatal(err)
	}
	lm := NewLayerModel(e)
	if lm.Layers() != model.Layers {
		t.Fatalf("layer model has %d layers, want %d", lm.Layers(), model.Layers)
	}
	// The token embedding adds parameters to the first layer; the LM-head
	// matmul adds compute (and tied parameters) to the last.
	midW, midB := lm.Work[model.Layers/2], lm.WeightBytes[model.Layers/2]
	if !(lm.WeightBytes[0] > midB) {
		t.Errorf("first layer bytes %g not heavier than mid %g", lm.WeightBytes[0], midB)
	}
	if !(lm.Work[model.Layers-1] > midW) || !(lm.WeightBytes[model.Layers-1] > midB) {
		t.Errorf("last layer not heavier: work %g/%g bytes %g/%g",
			lm.Work[model.Layers-1], midW, lm.WeightBytes[model.Layers-1], midB)
	}
	for l, w := range lm.Work {
		if w <= 0 || math.IsNaN(w) {
			t.Errorf("layer %d work %g", l, w)
		}
	}
}
