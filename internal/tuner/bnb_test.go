package tuner

import (
	"context"
	"math"
	"runtime"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/profile"
	"mario/internal/telemetry"
)

// maxPeak returns the worst per-device simulated peak of a candidate.
func maxPeak(c Candidate) float64 {
	var peak float64
	if c.Result != nil {
		for _, p := range c.Result.PeakMem {
			if p > peak {
				peak = p
			}
		}
	}
	return peak
}

// runSpace runs one Search with the given worker count on a fresh tuner and
// captures the comparable outputs, like runSearch but for an arbitrary space.
func runSpace(t *testing.T, sp Space, workers int) searchRun {
	t.Helper()
	tn := newTuner()
	tn.Workers = workers
	return capture(t, tn, sp)
}

// stratOut is the order-independent outcome of a Search: the error text, the
// best candidate rendered byte-exactly, and the ordering-invariant stats
// digest. Traces and ordering-variant counters legitimately differ between
// expansion orders, so they are excluded.
type stratOut struct {
	err      string
	best     string
	pruned   int
	feasible int
}

func runStrategy(tn *Tuner, sp Space) stratOut {
	best, _, err := tn.Search(sp)
	out := stratOut{}
	out.pruned, out.feasible = tn.Stats.invariant()
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.best = candString(*best)
	return out
}

// exhaustiveArgmax is the dumb oracle every expansion order is checked
// against: evaluate every grid point and keep the highest throughput, the
// lowest canonical index among ties. No bound, no incumbent decision, no
// driver — it shares only the point resolution and evaluation with the search.
func exhaustiveArgmax(t *testing.T, tn *Tuner, sp Space) stratOut {
	t.Helper()
	sp = sp.WithDefaults()
	w := newWorker()
	var best *Candidate
	var out stratOut
	for _, p := range enumerate(sp) {
		r := tn.pointShape(sp, p)
		if !r.ok {
			out.pruned++
			continue
		}
		nd := bnbNode{p: p, micros: r.micros, est: r.est, asg: r.asg}
		pr := tn.evalPoint(context.Background(), sp, nd, w, telemetry.Span{})
		if pr.err != nil {
			t.Fatalf("oracle evaluation of %s: %v", pointKey(0, p), pr.err)
		}
		if pr.cand == nil {
			out.pruned++
			continue
		}
		out.feasible++
		if best == nil || pr.cand.Throughput > best.Throughput {
			best = pr.cand
		}
	}
	if best == nil {
		out.err = "tuner: no feasible configuration in the search space"
		return out
	}
	out.best = candString(*best)
	return out
}

// searchOrders are the expansion orders of the one driver.
var searchOrders = []struct {
	name string
	set  func(*Space)
}{
	{"best-first", func(*Space) {}},
	{"NoBnB", func(sp *Space) { sp.NoBnB = true }},
	{"NoPrune", func(sp *Space) { sp.NoPrune = true }},
}

// checkOrdersAgainstOracle runs the space in every expansion order, each on a
// fresh tuner from mk, and demands the oracle's outcome from all of them: the
// byte-identical best candidate (or the identical error) and the same
// structural-prune / feasible partition of the grid.
func checkOrdersAgainstOracle(t *testing.T, sp Space, mk func() *Tuner) {
	t.Helper()
	oracle := exhaustiveArgmax(t, mk(), sp)
	for _, o := range searchOrders {
		osp := sp
		o.set(&osp)
		if got := runStrategy(mk(), osp); got != oracle {
			t.Errorf("%s search differs from the exhaustive argmax (space %+v):\n   got: %+v\noracle: %+v", o.name, sp, got, oracle)
		}
	}
}

// TestBnBMatchesGridArgmax is the headline equivalence contract: on the same
// space, the best-first search (the default), the canonical-order search
// (NoBnB) and the unpruned one (NoPrune) all return the exhaustive argmax,
// byte for byte, and partition the grid into the same structural-prune /
// feasible sets.
func TestBnBMatchesGridArgmax(t *testing.T) {
	cases := []struct {
		name  string
		sp    Space
		split bool
	}{
		{"detSpace", detSpace(), false},
		{"split-backward", detSpace(), true},
		{"gpipe-chimera", Space{
			Devices:      8,
			GlobalBatch:  32,
			Schemes:      []pipeline.Scheme{pipeline.SchemeGPipe, pipeline.SchemeChimera},
			MicroBatches: []int{1, 2},
			DeviceMem:    cost.A100_40G.MemBytes,
			MaxRounds:    3,
		}, false},
		{"no-mem-limit", Space{
			Devices:      8,
			GlobalBatch:  64,
			MicroBatches: []int{2, 4},
			MaxRounds:    3,
		}, false},
		{"zero-bubble", Space{
			Devices:      8,
			GlobalBatch:  64,
			Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeZBH1, pipeline.SchemeDualPipeD},
			MicroBatches: []int{1, 2},
			DeviceMem:    cost.A100_40G.MemBytes,
			MaxRounds:    3,
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.sp
			sp.SplitBackward = tc.split
			checkOrdersAgainstOracle(t, sp, seqTuner)
		})
	}
}

// memPressureSpace builds a 1F1B space whose pp=4 points are provably doomed
// (their admissible memory lower bound exceeds the budget) while at least one
// pp=8 configuration still fits: the budget is placed between the smallest
// simulated pp=8 peak and the pp=4 memory floor. It returns the space with
// DeviceMem set.
func memPressureSpace(t *testing.T) Space {
	t.Helper()
	sp := Space{
		Devices:      8,
		GlobalBatch:  32,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B},
		MicroBatches: []int{1, 2},
		MaxRounds:    3,
	}
	spd := sp.WithDefaults()
	probe := newTuner()
	p4 := gridPoint{scheme: pipeline.Scheme1F1B, pp: 4, dp: 2, mbs: 1}
	nd4, ok := probe.probePoint(spd, p4, probe.pointShape(spd, p4))
	if !ok {
		t.Fatal("pp=4 probe point is structurally infeasible")
	}
	ref := seqTuner()
	full := sp
	full.NoPrune = true // no DeviceMem: unconstrained reference peaks
	_, trace, err := ref.Search(full)
	if err != nil {
		t.Fatal(err)
	}
	p8 := math.Inf(1)
	for _, c := range trace {
		if c.PP == 8 && c.Result != nil {
			if pk := maxPeak(c); pk < p8 {
				p8 = pk
			}
		}
	}
	if !(p8 < nd4.memLB) {
		t.Fatalf("fixture premise broken: smallest pp=8 peak %g is not below the pp=4 memory floor %g", p8, nd4.memLB)
	}
	sp.DeviceMem = (p8 + nd4.memLB) / 2
	return sp
}

// TestBnBMemoryPruneDeterministic puts the memory-feasibility prune under the
// determinism contract: on a space engineered so the pp=4 column provably
// OOMs, the branch-and-bound search mem-prunes those points without
// simulating them, returns the grid walk's best candidate, and emits
// byte-identical outputs for every worker count.
func TestBnBMemoryPruneDeterministic(t *testing.T) {
	sp := memPressureSpace(t)

	base := runSpace(t, sp, 1)
	if base.stats.MemPruned == 0 {
		t.Fatalf("engineered memory pressure pruned nothing: stats %+v", base.stats)
	}
	if base.stats.Explored == 0 {
		t.Fatalf("memory pressure left nothing explored: stats %+v", base.stats)
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		got := runSpace(t, sp, w)
		if got.stats != base.stats {
			t.Errorf("workers=%d: stats %+v, want %+v", w, got.stats, base.stats)
		}
		if got.best != base.best {
			t.Errorf("workers=%d: best differs\n got: %s\nwant: %s", w, got.best, base.best)
		}
		if len(got.trace) != len(base.trace) {
			t.Fatalf("workers=%d: trace length %d, want %d", w, len(got.trace), len(base.trace))
		}
		for i := range got.trace {
			if got.trace[i] != base.trace[i] {
				t.Errorf("workers=%d: trace[%d] differs", w, i)
				break
			}
		}
		if len(got.progress) != len(base.progress) {
			t.Fatalf("workers=%d: %d progress callbacks, want %d", w, len(got.progress), len(base.progress))
		}
	}

	gridSp := sp
	gridSp.NoBnB = true
	grid := runStrategy(seqTuner(), gridSp)
	if grid.err != "" {
		t.Fatal(grid.err)
	}
	if base.best != grid.best {
		t.Errorf("mem-pruned bnb best differs from grid best:\n bnb: %s\ngrid: %s", base.best, grid.best)
	}
	p, f := base.stats.invariant()
	if p != grid.pruned || f != grid.feasible {
		t.Errorf("invariant digest differs: bnb=(%d,%d) grid=(%d,%d)", p, f, grid.pruned, grid.feasible)
	}
}

// TestBnBBoundAdmissible checks each bound in isolation against ground truth
// from an exhaustive search: for every simulated point, the throughput upper
// bound is at least the simulated throughput, the memory lower bound is at
// most the simulated worst-device peak (both compared on raw floats, no
// tolerance), and a doomed verdict implies the simulation really OOMs. The
// table covers detSpace in both backward modes — the split pass changes what
// transformations the bound must stay admissible under — and the benchmark's
// shapes: every scheme family the head/busy/tail bound prices differently
// (linear, bidirectional, interleaved, split-base), a heterogeneous cluster
// under the co-optimized placement, and one-micro-batch points, where the
// bound is exact and only its float slack keeps it admissible.
func TestBnBBoundAdmissible(t *testing.T) {
	gpt13b := func() *Tuner {
		tn := seqTuner()
		tn.Prof = &profile.Profiler{Model: cost.GPT3_13B, HW: cost.A100_40G,
			Spec: profile.DefaultMachine, Devices: 4, Iters: 4}
		return tn
	}
	// doomed is the memory column: how many of the exhaustive trace's points
	// the probe's memory bound rules out unbuilt. Each of them must simulate
	// OOM, and every simulated peak must be at least its point's bound.
	cases := []struct {
		name   string
		mk     func() *Tuner
		sp     Space
		split  bool
		doomed int
	}{
		{name: "detSpace", mk: seqTuner, sp: detSpace(), doomed: 7},
		{name: "detSpace/split-backward", mk: seqTuner, sp: detSpace(), split: true, doomed: 7},
		{name: "Z-16", mk: gpt13b, sp: Space{Devices: 16, GlobalBatch: 64,
			Schemes: []pipeline.Scheme{pipeline.SchemeZBH1}, DeviceMem: cost.A100_40G.MemBytes, MaxRounds: 2}, doomed: 29},
		{name: "D-8", mk: seqTuner, sp: Space{Devices: 8, GlobalBatch: 32,
			Schemes: []pipeline.Scheme{pipeline.SchemeDualPipeD}, DeviceMem: cost.H100_80G.MemBytes, MaxRounds: 3}, split: true, doomed: 0},
		{name: "hetero-8/coopt", mk: gpt13b, sp: Space{Devices: 8, GlobalBatch: 32,
			Schemes: []pipeline.Scheme{pipeline.Scheme1F1B}, DeviceMem: 72 * (1 << 30), MaxRounds: 2,
			DeviceSpeeds: []float64{1, 1, 1, 0.8, 1, 1, 1, 1}, Placement: place.ModeCoOpt}, split: true, doomed: 18},
		{name: "VXW-16", mk: gpt13b, sp: Space{Devices: 16, GlobalBatch: 64,
			MicroBatches: []int{1, 4}, DeviceMem: cost.A100_40G.MemBytes, MaxRounds: 2}, split: true, doomed: 29},
		{name: "one-sample-batch", mk: seqTuner, sp: Space{Devices: 8, GlobalBatch: 1,
			MicroBatches: []int{1}, DeviceMem: cost.A100_40G.MemBytes, MaxRounds: 3}, doomed: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tn := tc.mk()
			sp := tc.sp
			sp.SplitBackward = tc.split
			full := sp
			full.NoPrune = true
			_, trace, err := tn.Search(full)
			if err != nil {
				t.Fatal(err)
			}
			if len(trace) == 0 {
				t.Fatal("exhaustive search produced an empty trace")
			}
			spd := sp.WithDefaults() // the bounds a pruning search computes
			doomed, oom := 0, 0
			for _, c := range trace {
				if c.OOM {
					oom++
				}
				p := pointOf(c)
				nd, ok := tn.probePoint(spd, p, tn.pointShape(spd, p))
				if !ok {
					t.Errorf("simulated point %s probes as structurally infeasible", c.Label())
					continue
				}
				if nd.ub < c.Throughput {
					t.Errorf("%s: upper bound %g below simulated throughput %g (bound not admissible)",
						c.Label(), nd.ub, c.Throughput)
				}
				if math.IsInf(nd.ub, 1) {
					t.Errorf("%s: probe produced an infinite bound for a feasible point", c.Label())
				}
				if c.Result != nil {
					if pk := maxPeak(c); nd.memLB > pk {
						t.Errorf("%s: memory lower bound %g exceeds simulated peak %g (bound not admissible)",
							c.Label(), nd.memLB, pk)
					}
				}
				if nd.doomed {
					doomed++
					if !c.OOM {
						t.Errorf("%s: probe declared the point doomed but the simulation did not OOM", c.Label())
					}
				}
			}
			t.Logf("%d points, %d OOM, %d doomed", len(trace), oom, doomed)
			if doomed != tc.doomed {
				t.Errorf("the memory bound dooms %d of %d points, want %d", doomed, len(trace), tc.doomed)
			}
		})
	}
}

// TestBnBPrunedNodesCannotWin exhaustively verifies every pruning decision in
// a sampled space: any point the exhaustive walk simulated but branch-and-
// bound skipped must lose the canonical tie-break (higher throughput, then
// smaller grid index) against the returned best — i.e. no pruned node could
// have changed the argmax.
func TestBnBPrunedNodesCannotWin(t *testing.T) {
	sp := detSpace()
	bnbTn := seqTuner()
	bnbBest, bnbTrace, err := bnbTn.Search(sp)
	if err != nil {
		t.Fatal(err)
	}
	fullSp := sp
	fullSp.NoPrune = true
	fullTn := seqTuner()
	fullBest, fullTrace, err := fullTn.Search(fullSp)
	if err != nil {
		t.Fatal(err)
	}
	if candString(*bnbBest) != candString(*fullBest) {
		t.Fatalf("argmax differs:\n bnb: %s\nfull: %s", candString(*bnbBest), candString(*fullBest))
	}
	idx := make(map[gridPoint]int)
	for i, p := range enumerate(sp.WithDefaults()) {
		idx[p] = i
	}
	explored := make(map[gridPoint]bool, len(bnbTrace))
	for _, c := range bnbTrace {
		explored[pointOf(c)] = true
	}
	bestIdx, ok := idx[pointOf(*bnbBest)]
	if !ok {
		t.Fatal("best candidate is not a grid point")
	}
	prunedSeen := 0
	for _, c := range fullTrace {
		p := pointOf(c)
		if explored[p] {
			continue
		}
		prunedSeen++
		if c.Throughput > bnbBest.Throughput ||
			(c.Throughput == bnbBest.Throughput && idx[p] < bestIdx) {
			t.Errorf("pruned point %s (idx %d, throughput %g) beats the returned best %s (idx %d, throughput %g)",
				c.Label(), idx[p], c.Throughput, bnbBest.Label(), bestIdx, bnbBest.Throughput)
		}
	}
	if want := bnbTn.Stats.BoundPruned + bnbTn.Stats.MemPruned; prunedSeen != want {
		t.Errorf("full trace shows %d pruned points, stats count %d", prunedSeen, want)
	}
	if prunedSeen == 0 {
		t.Log("note: branch-and-bound pruned nothing on this space")
	}
}

// TestBnBEdgeCases is the table-driven parity check on degenerate spaces:
// fully infeasible grids (both strategies must return the identical error),
// dp=1 (PP pinned to the device count), a single-device single-stage
// pipeline, an all-OOM budget (the argmax falls back to the canonically first
// zero-throughput candidate) and a one-sample batch.
func TestBnBEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		sp      Space
		wantErr string
	}{
		{
			// GlobalBatch 7 with mbs=2: no (mbs, dp) divides the batch.
			name: "all-infeasible",
			sp: Space{
				Devices: 8, GlobalBatch: 7,
				MicroBatches: []int{2},
				DeviceMem:    cost.A100_40G.MemBytes,
				MaxRounds:    3,
			},
			wantErr: "tuner: no feasible configuration in the search space",
		},
		{
			name: "dp-one",
			sp: Space{
				Devices: 8, GlobalBatch: 16,
				MinPP:        8,
				MicroBatches: []int{1, 2},
				DeviceMem:    cost.A100_40G.MemBytes,
				MaxRounds:    3,
			},
		},
		{
			name: "single-device",
			sp: Space{
				Devices: 1, GlobalBatch: 4,
				Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B},
				MicroBatches: []int{1, 2},
				DeviceMem:    cost.A100_40G.MemBytes,
				MaxRounds:    3,
			},
		},
		{
			// A one-byte budget: every candidate OOMs, throughput is zero
			// everywhere, and the canonical tie-break alone picks the winner.
			name: "all-oom",
			sp: Space{
				Devices: 8, GlobalBatch: 64,
				MicroBatches: []int{1, 2, 4},
				DeviceMem:    1,
				MaxRounds:    3,
			},
		},
		{
			name: "one-sample-batch",
			sp: Space{
				Devices: 8, GlobalBatch: 1,
				MicroBatches: []int{1},
				DeviceMem:    cost.A100_40G.MemBytes,
				MaxRounds:    3,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bnb := runStrategy(seqTuner(), tc.sp)
			gridSp := tc.sp
			gridSp.NoBnB = true
			grid := runStrategy(seqTuner(), gridSp)
			if bnb.err != grid.err {
				t.Fatalf("error parity broken: bnb=%q grid=%q", bnb.err, grid.err)
			}
			if tc.wantErr != "" && bnb.err != tc.wantErr {
				t.Fatalf("error = %q, want %q", bnb.err, tc.wantErr)
			}
			if bnb.best != grid.best {
				t.Errorf("best differs:\n bnb: %s\ngrid: %s", bnb.best, grid.best)
			}
			if bnb.pruned != grid.pruned || bnb.feasible != grid.feasible {
				t.Errorf("invariant digest differs: bnb=(%d,%d) grid=(%d,%d)",
					bnb.pruned, bnb.feasible, grid.pruned, grid.feasible)
			}
		})
	}
}

// TestBnBExplorationEfficiency pins the PR's acceptance criterion on the
// paper's 64-device GPT3-13B grid (the BenchmarkTunerSearch space, >200
// configurations): branch-and-bound must simulate at most a quarter of the
// points the exhaustive walk does while returning the byte-identical argmax.
func TestBnBExplorationEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("large grid; skipped with -short")
	}
	prof := &profile.Profiler{
		Model: cost.GPT3_13B, HW: cost.A100_40G,
		Spec: profile.DefaultMachine, Devices: 4, Iters: 4,
	}
	space := Space{
		Devices:      64,
		GlobalBatch:  512,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave, pipeline.SchemeGPipe},
		MicroBatches: []int{1, 2, 4, 8, 16, 32},
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    1,
	}
	fullTn := &Tuner{Prof: prof, Workers: runtime.GOMAXPROCS(0)}
	fullSp := space
	fullSp.NoPrune = true
	fullBest, _, err := fullTn.Search(fullSp)
	if err != nil {
		t.Fatal(err)
	}
	bnbTn := &Tuner{Prof: prof, Workers: runtime.GOMAXPROCS(0)}
	bnbBest, _, err := bnbTn.Search(space)
	if err != nil {
		t.Fatal(err)
	}
	if candString(*bnbBest) != candString(*fullBest) {
		t.Errorf("argmax differs:\n bnb: %s\nfull: %s", candString(*bnbBest), candString(*fullBest))
	}
	fullN, bnbN := fullTn.Stats.Explored, bnbTn.Stats.Explored
	t.Logf("exhaustive explored %d; bnb explored %d, bound-pruned %d, mem-pruned %d",
		fullN, bnbN, bnbTn.Stats.BoundPruned, bnbTn.Stats.MemPruned)
	if 4*bnbN > fullN {
		t.Errorf("bnb explored %d of %d points, want at most a quarter", bnbN, fullN)
	}
	p, f := bnbTn.Stats.invariant()
	pF, fF := fullTn.Stats.invariant()
	if p != pF || f != fF {
		t.Errorf("invariant digest differs: bnb=(%d,%d) full=(%d,%d)", p, f, pF, fF)
	}
}

// FuzzBnBArgmaxEquivalence drives the search, in every expansion order, and
// the exhaustive argmax oracle over randomized small spaces and demands the
// byte-identical best plan, matching error text, and an equal
// ordering-invariant stats digest — the differential fuzzer for the search
// driver, mirroring FuzzEngineReuseEquivalence for the simulator.
func FuzzBnBArgmaxEquivalence(f *testing.F) {
	f.Add(uint8(2), uint16(32), uint8(3), uint8(1), uint8(0), false)
	f.Add(uint8(1), uint16(16), uint8(5), uint8(15), uint8(3), true)
	f.Add(uint8(0), uint16(7), uint8(2), uint8(2), uint8(200), false)
	f.Add(uint8(2), uint16(64), uint8(1), uint8(4), uint8(1), true)
	f.Add(uint8(2), uint16(32), uint8(3), uint8(0x31), uint8(2), true)
	f.Add(uint8(1), uint16(0), uint8(1), uint8(0x3f), uint8(0), false)
	f.Fuzz(func(t *testing.T, dSel uint8, gb uint16, mbsMask, schemeMask, memSel uint8, split bool) {
		devices := []int{2, 4, 8}[int(dSel)%3]
		batch := 1 + int(gb)%64
		var mbs []int
		for i, m := range []int{1, 2, 3, 4, 8} {
			if mbsMask&(1<<i) != 0 {
				mbs = append(mbs, m)
			}
		}
		if len(mbs) == 0 {
			mbs = []int{1, 2}
		}
		all := []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave, pipeline.SchemeGPipe,
			pipeline.SchemeZBH1, pipeline.SchemeDualPipeD}
		var schemes []pipeline.Scheme
		for i, s := range all {
			if schemeMask&(1<<i) != 0 {
				schemes = append(schemes, s)
			}
		}
		var mem float64
		if memSel > 0 {
			mem = cost.A100_40G.MemBytes / float64(1+int(memSel)%8)
		}
		sp := Space{
			Devices:       devices,
			GlobalBatch:   batch,
			Schemes:       schemes, // nil selects the default set
			MicroBatches:  mbs,
			DeviceMem:     mem,
			SplitBackward: split,
			MaxRounds:     2,
		}
		prof := &profile.Profiler{
			Model: cost.LLaMA2_3B, HW: cost.A100_40G,
			Spec: profile.DefaultMachine, Devices: 4, Iters: 4,
		}
		checkOrdersAgainstOracle(t, sp, func() *Tuner {
			return &Tuner{Prof: prof, Workers: 1}
		})
	})
}
