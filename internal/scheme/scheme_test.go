package scheme

import (
	"testing"
	"testing/quick"

	"mario/internal/pipeline"
)

// mustBuild builds and validates: Build does not validate its own output,
// so every test that builds through here checks the generator it exercises.
func mustBuild(t *testing.T, s pipeline.Scheme, cfg Config) *pipeline.Schedule {
	t.Helper()
	sched, err := Build(s, cfg)
	if err != nil {
		t.Fatalf("Build(%s, %+v): %v", s, cfg, err)
	}
	if err := pipeline.Validate(sched); err != nil {
		t.Fatalf("Build(%s, %+v) is invalid: %v", s, cfg, err)
	}
	return sched
}

// TestAllSchemesValidate builds and validates every registered scheme over a
// grid of sizes (Interleave at two chunk counts). The exhaustive sweep over
// small shapes, with the graph passes on top, is TestRegistryValidates in
// internal/graph.
func TestAllSchemesValidate(t *testing.T) {
	for _, s := range Schemes() {
		for _, d := range []int{2, 4, 8} {
			for _, n := range []int{8, 16} {
				mustBuild(t, s, Config{Devices: d, Micros: n})
				if s == pipeline.SchemeInterleave {
					mustBuild(t, s, Config{Devices: d, Micros: n, Chunks: 4})
				}
			}
		}
	}
}

func TestBuildRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		s   pipeline.Scheme
		cfg Config
	}{
		{pipeline.Scheme1F1B, Config{Devices: 0, Micros: 4}},
		{pipeline.Scheme1F1B, Config{Devices: 4, Micros: 0}},
		{pipeline.SchemeChimera, Config{Devices: 3, Micros: 4}},
		{pipeline.SchemeInterleave, Config{Devices: 4, Micros: 6}},
		{pipeline.Scheme("Nope"), Config{Devices: 4, Micros: 4}},
	}
	for _, tc := range cases {
		if _, err := Build(tc.s, tc.cfg); err == nil {
			t.Errorf("Build(%s, %+v) should fail", tc.s, tc.cfg)
		}
	}
}

// Test1F1BWarmupDepth: device d of a D-device 1F1B pipeline runs exactly
// D-1-d forwards before its first backward.
func Test1F1BWarmupDepth(t *testing.T) {
	const d, n = 4, 8
	s := mustBuild(t, pipeline.Scheme1F1B, Config{Devices: d, Micros: n})
	for dev, list := range s.Lists {
		fwd := 0
		for _, in := range list {
			if in.Kind == pipeline.Forward {
				fwd++
			}
			if in.Kind == pipeline.Backward {
				break
			}
		}
		// The steady phase starts with one more forward before the first BW.
		want := d - 1 - dev + 1
		if dev == d-1 {
			want = 1
		}
		if fwd != want {
			t.Errorf("dev%d: %d forwards before first backward, want %d", dev, fwd, want)
		}
	}
}

// Test1F1BOnTheFlyMicros: the peak number of unfinished micro-batches on
// device d is min(N, D-d) — the source of Table 1's [Mθ, D·Mθ] activation
// range.
func Test1F1BOnTheFlyMicros(t *testing.T) {
	const d, n = 8, 16
	s := mustBuild(t, pipeline.Scheme1F1B, Config{Devices: d, Micros: n})
	for dev, list := range s.Lists {
		cur, peak := 0, 0
		for _, in := range list {
			switch in.Kind {
			case pipeline.Forward:
				cur++
				if cur > peak {
					peak = cur
				}
			case pipeline.Backward:
				cur--
			}
		}
		want := d - dev
		if want > n {
			want = n
		}
		if peak != want {
			t.Errorf("dev%d: peak on-the-fly micros = %d, want %d", dev, peak, want)
		}
	}
}

// TestGPipeShape: all forwards precede all backwards on every device.
func TestGPipeShape(t *testing.T) {
	s := mustBuild(t, pipeline.SchemeGPipe, Config{Devices: 4, Micros: 8})
	for dev, list := range s.Lists {
		seenBW := false
		for _, in := range list {
			if in.Kind == pipeline.Backward {
				seenBW = true
			}
			if in.Kind == pipeline.Forward && seenBW {
				t.Errorf("dev%d: forward after backward in GPipe", dev)
			}
		}
	}
}

// TestChimeraBidirectional: both parts appear, part 0 micros start on device
// 0 and part 1 micros on device D-1, and each device's weights cover two
// stages (2×Mw, Table 1).
func TestChimeraBidirectional(t *testing.T) {
	const d, n = 4, 8
	s := mustBuild(t, pipeline.SchemeChimera, Config{Devices: d, Micros: n})
	if s.Placement.WeightReplicas() != 2 {
		t.Error("Chimera placement should report 2 weight replicas")
	}
	parts := map[int]bool{}
	for _, list := range s.Lists {
		for _, in := range list {
			if in.Kind == pipeline.Forward {
				parts[in.Part] = true
				if in.Stage == 0 {
					wantDev := 0
					if in.Part == 1 {
						wantDev = d - 1
					}
					if got := s.Placement.Device(in.Part, 0); got != wantDev {
						t.Errorf("part %d stage 0 on device %d, want %d", in.Part, got, wantDev)
					}
				}
			}
		}
	}
	if !parts[0] || !parts[1] {
		t.Errorf("expected both pipeline directions, got %v", parts)
	}
}

// TestChimeraMicroSplit: micro-batches alternate between directions in
// blocks of D/2.
func TestChimeraMicroSplit(t *testing.T) {
	const d, n = 4, 8
	s := mustBuild(t, pipeline.SchemeChimera, Config{Devices: d, Micros: n})
	partOf := make(map[int]int)
	for _, list := range s.Lists {
		for _, in := range list {
			if in.Kind == pipeline.Forward {
				partOf[in.Micro] = in.Part
			}
		}
	}
	for m := 0; m < n; m++ {
		want := (m / (d / 2)) % 2
		if partOf[m] != want {
			t.Errorf("micro %d in part %d, want %d", m, partOf[m], want)
		}
	}
}

// TestInterleaveChunkWalk: forwards on a device walk chunks in ascending
// order within each micro-batch group, backwards in descending order.
func TestInterleaveChunkWalk(t *testing.T) {
	const d, n, v = 4, 8, 2
	s := mustBuild(t, pipeline.SchemeInterleave, Config{Devices: d, Micros: n, Chunks: v})
	list := s.Lists[0]
	var fwChunks []int
	for _, in := range list {
		if in.Kind == pipeline.Forward {
			fwChunks = append(fwChunks, in.Part)
		}
	}
	// First D forwards are chunk 0, next D chunk 1 (group structure).
	for i := 0; i < d && i < len(fwChunks); i++ {
		if fwChunks[i] != 0 {
			t.Errorf("forward %d on chunk %d, want 0", i, fwChunks[i])
		}
	}
	for i := d; i < 2*d && i < len(fwChunks); i++ {
		if fwChunks[i] != 1 {
			t.Errorf("forward %d on chunk %d, want 1", i, fwChunks[i])
		}
	}
}

// TestSchemeInstructionCounts: every scheme carries exactly N forwards and N
// backwards per stage, distributed per its placement.
func TestSchemeInstructionCounts(t *testing.T) {
	f := func(dRaw, nRaw uint8) bool {
		d := 2 * (int(dRaw)%4 + 1) // 2..8 even
		n := d * (int(nRaw)%3 + 1) // multiple of d
		for _, sch := range []pipeline.Scheme{pipeline.SchemeGPipe, pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave} {
			s, err := Build(sch, Config{Devices: d, Micros: n})
			if err != nil {
				return false
			}
			if s.CountKind(-1, pipeline.Forward) != n*s.NumStages() {
				return false
			}
			if s.CountKind(-1, pipeline.Backward) != n*s.NumStages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDefaultChunks: Interleave defaults to 2 chunks.
func TestDefaultChunks(t *testing.T) {
	s := mustBuild(t, pipeline.SchemeInterleave, Config{Devices: 4, Micros: 8})
	if got := s.NumStages(); got != 8 {
		t.Errorf("default interleave stages = %d, want 8", got)
	}
}
