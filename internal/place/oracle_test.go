package place

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
)

// dpCase is one input of the partition DP: a layer model, a placement, the
// per-rank slowdowns and the memory options.
type dpCase struct {
	lm   *LayerModel
	pl   pipeline.Placement
	slow []float64
	opts Options
}

func (c dpCase) String() string {
	return fmt.Sprintf("%T%+v slow=%v work=%v weight=%v act=%v stash=%v opts=%+v",
		c.pl, c.pl, c.slow, c.lm.Work, c.lm.WeightBytes, c.lm.ActBytes, c.lm.StashBytes, c.opts)
}

// budgets is the specification's per-stage memory budget: the cap minus the
// framework memory, shared evenly by the distinct stages the stage's device
// hosts; negative means unlimited.
func (c dpCase) budgets() []float64 {
	S := c.pl.NumStages()
	out := make([]float64, S)
	if c.opts.MemCap <= 0 {
		for st := range out {
			out[st] = -1
		}
		return out
	}
	hosted := make([]map[int]bool, c.pl.NumDevices())
	for d := range hosted {
		hosted[d] = map[int]bool{}
	}
	for st := 0; st < S; st++ {
		for p := 0; p < c.pl.NumParts(); p++ {
			hosted[c.pl.Device(p, st)][st] = true
		}
	}
	for st := range out {
		out[st] = c.opts.MemCap - c.opts.FrameworkMem
		if n := len(hosted[c.pl.Device(0, st)]); n > 1 {
			out[st] /= float64(n)
		}
	}
	return out
}

// stage prices stage st holding layers k..l-1: its duration under the slowest
// rank playing it (never below nominal), and whether its memory floor fits its
// budget (negative: unlimited).
func (c dpCase) stage(st, k, l int, budget float64) (dur float64, fits bool) {
	slow := 1.0
	for p := 0; p < c.pl.NumParts(); p++ {
		slow = math.Max(slow, c.slow[c.pl.Device(p, st)])
	}
	work := prefix(c.lm.Work)
	return (work[l] - work[k]) * slow, budget < 0 || c.floor(st, k, l) <= budget
}

// floor is the memory stage st needs holding layers k..l-1: the layers'
// training state and activations, the largest single activation, the transfer
// buffers and the in-flight stashes of its first layer, in the arithmetic the
// DP is specified in.
func (c dpCase) floor(st, k, l int) float64 {
	mem := append([]float64(nil), c.lm.WeightBytes...)
	if len(c.lm.ActBytes) == len(mem) {
		for i := range mem {
			mem[i] += c.lm.ActBytes[i]
		}
	}
	bytes := prefix(mem)
	var maxAct float64
	for i := k; i < l && i < len(c.lm.ActBytes); i++ {
		maxAct = math.Max(maxAct, c.lm.ActBytes[i])
	}
	need := bytes[l] - bytes[k] + maxAct + c.opts.BufBytes
	if k < len(c.lm.StashBytes) {
		inFlight := 1.0
		if st < len(c.opts.InFlight) && c.opts.InFlight[st] > 1 {
			inFlight = float64(c.opts.InFlight[st])
		}
		need += inFlight * c.lm.StashBytes[k]
	}
	return need
}

// compositions calls fn with every composition of l into s positive parts.
func compositions(l, s int, fn func([]int)) {
	comp := make([]int, s)
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == s-1 {
			comp[i] = left
			fn(comp)
			return
		}
		for n := 1; n <= left-(s-1-i); n++ {
			comp[i] = n
			rec(i+1, left-n)
		}
	}
	rec(0, l)
}

// spec is the recursive specification of the DP's answer for the first l
// layers on the first s stages, by brute force over every composition: the
// minimum bottleneck over the feasible partitions, the earliest last cut among
// the partitions that reach it, and in front of that cut the specification's
// answer for its own subproblem. ok is false when no partition is feasible.
func (c dpCase) spec(s, l int, budgets []float64) (part []int, ok bool) {
	best, cut := math.Inf(1), -1
	compositions(l, s, func(comp []int) {
		var worst float64
		k := 0
		for st, n := range comp {
			dur, fits := c.stage(st, k, k+n, budgets[st])
			if !fits {
				return
			}
			worst = math.Max(worst, dur)
			k += n
		}
		if last := l - comp[s-1]; worst < best || (worst == best && last < cut) {
			best, cut = worst, last
		}
	})
	if cut < 0 {
		return nil, false
	}
	if s == 1 {
		return []int{l}, true
	}
	head, _ := c.spec(s-1, cut, budgets)
	return append(head, l-cut), true
}

// dpPlacements are the placements the oracle covers: every linear pipeline
// of up to five stages, Chimera's bidirectional pair, and interleaved chunks.
var dpPlacements = []pipeline.Placement{
	pipeline.LinearPlacement{D: 1}, pipeline.LinearPlacement{D: 2}, pipeline.LinearPlacement{D: 3},
	pipeline.LinearPlacement{D: 4}, pipeline.LinearPlacement{D: 5},
	pipeline.BidirPlacement{D: 2}, pipeline.BidirPlacement{D: 4},
	pipeline.InterleavedPlacement{D: 1, V: 3}, pipeline.InterleavedPlacement{D: 2, V: 2},
	pipeline.InterleavedPlacement{D: 1, V: 5},
}

// randomCase draws a DP input over pl with L layers, in one of two kinds: on
// a small integer grid — work (zeros included), bytes, buffers and caps are
// then exact, so durations tie and a cap can equal a stage's floor to the
// byte — or continuous. Activations and stashes are sometimes unmodelled,
// InFlight sometimes nil, the speed slots permuted, and the cap unlimited,
// drawn around an even share of the stack's bytes (binding or not), set to
// one stage's exact floor, or too small for anything.
func randomCase(rng *rand.Rand, pl pipeline.Placement, L int) dpCase {
	grid := rng.Intn(2) == 0
	draw := func(scale float64) float64 {
		if grid {
			return float64(rng.Intn(int(scale) + 1))
		}
		return rng.Float64() * scale
	}
	lm := &LayerModel{Work: make([]float64, L), WeightBytes: make([]float64, L)}
	var total float64
	for l := range lm.Work {
		lm.Work[l] = draw(3) / 2
		lm.WeightBytes[l] = draw(4)
		total += lm.WeightBytes[l]
	}
	if rng.Intn(4) > 0 {
		lm.ActBytes = make([]float64, L)
		for l := range lm.ActBytes {
			lm.ActBytes[l] = draw(2)
			total += lm.ActBytes[l]
		}
	}
	if rng.Intn(4) > 0 {
		lm.StashBytes = make([]float64, L)
		for l := range lm.StashBytes {
			lm.StashBytes[l] = draw(3)
		}
	}
	D, S := pl.NumDevices(), pl.NumStages()
	slots := make([]float64, D)
	for d := range slots {
		slots[d] = []float64{1, 1, 0.5, 0.8, 1.25, 0.3}[rng.Intn(6)]
	}
	c := dpCase{lm: lm, pl: pl, slow: slowOfRanks(slots, rng.Perm(D))}
	if rng.Intn(2) == 0 {
		c.opts.InFlight = make([]int, S)
		for st := range c.opts.InFlight {
			c.opts.InFlight[st] = rng.Intn(5)
		}
	}
	c.opts.BufBytes = draw(1)
	c.opts.FrameworkMem = draw(1)
	parts := float64(pl.NumParts())
	switch rng.Intn(5) {
	case 0: // unlimited
	case 1: // infeasible
		c.opts.MemCap = c.opts.FrameworkMem + 0.5
	case 2: // one stage's floor exactly: the budget ties a need
		st := rng.Intn(S)
		k := st + rng.Intn(L-S+1)
		c.opts.MemCap = c.opts.FrameworkMem + parts*c.floor(st, k, k+1+rng.Intn(L-k))
	default: // around an even share of the stack, stashes and buffers
		var extra float64
		for l := range lm.StashBytes {
			extra = math.Max(extra, 4*lm.StashBytes[l])
		}
		for l := range lm.ActBytes {
			extra = math.Max(extra, lm.ActBytes[l])
		}
		share := total/float64(S) + extra + c.opts.BufBytes
		c.opts.MemCap = c.opts.FrameworkMem + parts*math.Ceil(share*(0.5+rng.Float64()))
	}
	return c
}

// TestPartitionDPMatchesBruteForce holds partitionDP — early exits included —
// to its specification on every composition of up to 10 layers into up to 5
// stages: the minimum bottleneck, the earliest last cut among the optimal
// partitions, a prefix optimal for its own subproblem, and the even split when
// no partition fits.
func TestPartitionDPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var bound, infeasible, ties int
	for _, pl := range dpPlacements {
		S := pl.NumStages()
		for L := S; L <= 10; L++ {
			for i := 0; i < 24; i++ {
				c := randomCase(rng, pl, L)
				budgets := c.budgets()
				want, ok := c.spec(S, L, budgets)
				if !ok {
					want = cost.Partition(L, S)
					infeasible++
				} else if c.opts.MemCap > 0 {
					free := c
					free.opts.MemCap = 0
					if loose, _ := free.spec(S, L, free.budgets()); !reflect.DeepEqual(loose, want) {
						bound++
					}
				}
				if got := partitionDP(c.lm, c.pl, c.slow, c.opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("partitionDP = %v, specification %v\n%v", got, want, c)
				}
				for _, w := range c.lm.Work {
					if w == 0 {
						ties++
						break
					}
				}
			}
		}
	}
	t.Logf("%d binding caps, %d infeasible, %d zero-work stacks", bound, infeasible, ties)
	// The draw must reach every regime the early exits can get wrong.
	if bound == 0 || infeasible == 0 || ties == 0 {
		t.Errorf("draw too narrow: %d binding caps, %d infeasible, %d zero-work stacks", bound, infeasible, ties)
	}
}

// coOptimizeTwoRounds is the fixpoint loop CoOptimize replaced, kept as the
// reference: it stopped only after two consecutive rounds returned the same
// partition and placement. converged reports whether it stopped before the
// iteration cap.
func coOptimizeTwoRounds(lm *LayerModel, pl pipeline.Placement, slots []float64, opts Options, iters int) (part, deviceOf []int, converged bool) {
	deviceOf = identity(pl.NumDevices())
	for iter := 0; iter < iters; iter++ {
		next := partitionDP(lm, pl, slowOfRanks(slots, deviceOf), opts)
		perm := matchDevices(lm, pl, next, slots)
		if part != nil && equalInts(next, part) && equalInts(perm, deviceOf) {
			return part, deviceOf, true
		}
		part, deviceOf = next, perm
	}
	return part, deviceOf, false
}

// TestCoOptimizeMatchesTwoRoundFixpoint: stopping as soon as the matching
// returns the placement the DP ran under gives what the two-equal-rounds loop
// gives, on random inputs — those that hit the cap without converging
// included.
func TestCoOptimizeMatchesTwoRoundFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var capped int
	for i := 0; i < 20000; i++ {
		pl := dpPlacements[rng.Intn(len(dpPlacements))]
		L := pl.NumStages() + rng.Intn(12)
		c := randomCase(rng, pl, L)
		slots := make([]float64, pl.NumDevices())
		for d := range slots {
			slots[d] = 0.2 + rng.Float64()
		}
		part, deviceOf, converged := coOptimizeTwoRounds(c.lm, c.pl, slots, c.opts, maxIters)
		if !converged {
			capped++
		}
		a, err := CoOptimize(c.lm, c.pl, slots, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(a.LayersPerStage, part) || !equalInts(a.DeviceOf, deviceOf) {
			t.Fatalf("CoOptimize = %v/%v, the two-round fixpoint %v/%v\nslots=%v %v",
				a.LayersPerStage, a.DeviceOf, part, deviceOf, slots, c)
		}
	}
	t.Logf("%d of 20000 inputs hit the iteration cap unconverged", capped)
	if capped == 0 {
		t.Error("no input hit the iteration cap unconverged")
	}
}

// TestCoOptimizeExtremeSlowdown: a slowdown near the largest float64 is a
// slowdown like any other. The slow slot's rank holds one layer at speed
// 1e-305 exactly as it does at 1e-200; a finite sentinel for "infeasible"
// used to swallow the former and fall back to the even split.
func TestCoOptimizeExtremeSlowdown(t *testing.T) {
	lm := skewedModel()
	pl := pipeline.LinearPlacement{D: 4}
	for _, s := range []float64{1e-200, 1e-305} {
		a, err := CoOptimize(lm, pl, []float64{1, 1, s, 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for r, d := range a.DeviceOf {
			if d == 2 && a.LayersPerStage[r] != 1 {
				t.Errorf("speed %g: rank %d on the slow slot holds %d layers (partition %v)", s, r, a.LayersPerStage[r], a.LayersPerStage)
			}
		}
	}
}
