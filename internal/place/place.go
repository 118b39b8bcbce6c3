// Package place is the heterogeneity-aware partitioning and placement
// subsystem: it decides how many transformer layers each pipeline stage
// holds (layer→stage partitioning) and which physical device executes each
// pipeline rank (stage→device placement) for clusters whose devices do not
// all run at the same speed.
//
// The subsystem deliberately does not introduce a new pipeline.Placement:
// the schedule's (part, stage)→rank mapping is untouched, so the IR, the
// graph passes and the communication structure all stay byte-identical.
// What changes is which physical speed slot plays which rank — captured as a
// deterministic permutation in Assignment.DeviceOf — and how many layers each
// stage carries — Assignment.LayersPerStage, fed to the estimator as a
// cost.AnalyticConfig.Partition override. The per-rank speeds that result
// thread through cost.Estimator.DeviceSpeed, in the estimator the simulator
// prices with and in the truth estimator the emulator runs on.
//
// Both decisions are co-optimized by a deterministic fixpoint iteration
// (CoOptimize): a dynamic program over layer prefix sums partitions layers
// to minimize the bottleneck stage duration under a per-device memory cap,
// and a sorted matching assigns heavy ranks to fast devices; each step uses
// the other's latest answer until neither changes.
package place

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mario/internal/cost"
	"mario/internal/pipeline"
)

// Mode selects how the tuner uses the placement subsystem.
type Mode string

// Placement-search modes. ModeAuto explores the co-optimized assignment
// alongside the uniform baseline when the cluster is heterogeneous and
// collapses to the legacy uniform behaviour when it is not; ModeUniform
// forces the even split with identity placement; ModeCoOpt forces the
// co-optimized assignment.
const (
	ModeAuto    Mode = "auto"
	ModeUniform Mode = "uniform"
	ModeCoOpt   Mode = "coopt"
)

// ParseMode canonicalizes a placement-mode string; the empty string means
// ModeAuto.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", string(ModeAuto):
		return ModeAuto, nil
	case string(ModeUniform):
		return ModeUniform, nil
	case string(ModeCoOpt):
		return ModeCoOpt, nil
	}
	return "", fmt.Errorf("place: unknown placement mode %q (want auto, uniform or coopt)", s)
}

// ParseSpeeds parses a per-device speed specification against a known device
// count. Two forms are accepted: a full comma-separated list with one entry
// per device ("1,0.8,1,1"), or a sparse list of dev=speed overrides on a
// nominal-1 baseline ("2=0.8" or "1=0.9,3=0.75"). Speeds must pass
// CheckSpeed; sparse indices must be in range. An empty spec, or one whose every
// speed is nominal, returns nil (homogeneous); any other accepted spec returns
// exactly devices entries.
func ParseSpeeds(spec string, devices int) ([]float64, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if devices < 1 {
		return nil, fmt.Errorf("place: speeds for %d devices", devices)
	}
	fields := strings.Split(spec, ",")
	sparse := strings.Contains(fields[0], "=")
	out := make([]float64, devices)
	for i := range out {
		out[i] = 1
	}
	if sparse {
		for _, f := range fields {
			f = strings.TrimSpace(f)
			dev, val, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("place: speed entry %q: want dev=speed", f)
			}
			d, err := strconv.Atoi(strings.TrimSpace(dev))
			if err != nil {
				return nil, fmt.Errorf("place: speed entry %q: bad device index: %v", f, err)
			}
			if d < 0 || d >= devices {
				return nil, fmt.Errorf("place: speed entry %q: device %d out of range (cluster has %d devices)", f, d, devices)
			}
			s, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return nil, fmt.Errorf("place: speed entry %q: bad speed: %v", f, err)
			}
			if err := CheckSpeed(s); err != nil {
				return nil, fmt.Errorf("place: speed entry %q: %w", f, err)
			}
			out[d] = s
		}
	} else {
		if len(fields) != devices {
			return nil, fmt.Errorf("place: %d speed entries for %d devices", len(fields), devices)
		}
		for i, f := range fields {
			s, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("place: speed entry %q: %v", f, err)
			}
			if err := CheckSpeed(s); err != nil {
				return nil, fmt.Errorf("place: speed entry %q: %w", f, err)
			}
			out[i] = s
		}
	}
	if Homogeneous(out) {
		return nil, nil
	}
	return out, nil
}

// CheckSpeed refuses a device speed the subsystem cannot price: one that is
// not positive and finite, or one so small that its slowdown 1/speed — the
// multiplier every compute duration of the device is scaled by — overflows.
func CheckSpeed(s float64) error {
	if !(s > 0) || math.IsInf(s, 1) {
		return fmt.Errorf("speed %g must be positive and finite", s)
	}
	if math.IsInf(1/s, 1) {
		return fmt.Errorf("speed %g is too small: its slowdown 1/speed is not finite", s)
	}
	return nil
}

// Homogeneous reports whether every declared speed is the nominal 1 (or the
// list is empty) — the cases where the placement axis has nothing to
// exploit.
func Homogeneous(speeds []float64) bool {
	for _, s := range speeds {
		if s != 1 {
			return false
		}
	}
	return true
}

// Assignment is the canonical output of the subsystem: one concrete
// partitioning + placement decision for a (scheme, pipeline-depth) point.
type Assignment struct {
	// LayersPerStage[s] is the number of transformer layers stage s holds.
	LayersPerStage []int `json:"layers_per_stage"`
	// DeviceOf[r] is the physical speed slot pipeline rank r runs on — a
	// permutation of 0..D-1 within one pipeline replica. The identity
	// permutation is the legacy placement.
	DeviceOf []int `json:"device_of"`
	// RankSpeed[r] is the relative compute speed of the device playing rank
	// r after the permutation (1 = nominal). nil means homogeneous.
	RankSpeed []float64 `json:"rank_speed,omitempty"`
}

// LayerModel is the per-layer cost model of an uneven transformer stack: the
// compute time and training-state bytes of each individual layer, with the
// embedding cost folded into the first layer and the LM-head cost into the
// last — exactly the asymmetry that makes uniform splits suboptimal.
type LayerModel struct {
	// Work[l] is the fw+bw compute time of layer l in seconds (the DP's
	// bottleneck currency).
	Work []float64
	// WeightBytes[l] is the training state of layer l in bytes (weights,
	// gradients, optimizer states), used for the memory cap.
	WeightBytes []float64
	// ActBytes[l] is the full activation footprint of one micro-batch of
	// layer l in bytes. Even under full checkpointing a stage cannot go
	// below static state plus one micro-batch's activations — the recompute
	// rematerializes them for the backward — so the memory cap prices each
	// layer at WeightBytes+ActBytes. nil means activations are not modelled.
	ActBytes []float64
	// StashBytes[l] is the checkpointed footprint of layer l in bytes (the
	// layer input a CkptForward retains); each in-flight micro-batch keeps
	// one stash of its stage's first layer. nil means stashes are not
	// modelled.
	StashBytes []float64
}

// NewLayerModel derives the per-layer model from a per-layer estimator: one
// built with a partition of all ones, i.e. Stages == Layers, so stage l's
// costs are layer l's costs (first/last-stage extras land on the first and
// last layer).
func NewLayerModel(e *cost.Estimator) *LayerModel {
	lm := &LayerModel{
		Work:        make([]float64, e.Stages),
		WeightBytes: make([]float64, e.Stages),
		ActBytes:    make([]float64, e.Stages),
		StashBytes:  make([]float64, e.Stages),
	}
	for l := 0; l < e.Stages; l++ {
		lm.Work[l] = e.FwTime[l] + e.BwTime[l]
		lm.WeightBytes[l] = e.WeightBytes[l]
		lm.ActBytes[l] = e.ActFull[l]
		lm.StashBytes[l] = e.ActStash[l]
	}
	return lm
}

// Layers returns the number of layers the model describes.
func (lm *LayerModel) Layers() int { return len(lm.Work) }

// RankSpeeds collapses the physical per-device speed list onto the pipeline
// ranks of one replica: data-parallel replica k runs on devices
// [k·pp, (k+1)·pp), replicas execute in lockstep, so rank r is gated by the
// slowest device playing it across replicas — min over k of
// speeds[k·pp+r]. Missing, zero or negative entries count as nominal speed
// 1. A nil or empty speeds list returns nil (homogeneous).
func RankSpeeds(speeds []float64, pp, dp int) []float64 {
	if len(speeds) == 0 {
		return nil
	}
	out := make([]float64, pp)
	for r := 0; r < pp; r++ {
		mn := 1.0
		first := true
		for k := 0; k < dp; k++ {
			s := 1.0
			if i := k*pp + r; i < len(speeds) && speeds[i] > 0 {
				s = speeds[i]
			}
			if first || s < mn {
				mn, first = s, false
			}
		}
		out[r] = mn
	}
	return out
}

// Uniform returns the legacy baseline assignment for the given placement:
// the even layer split, identity rank→device mapping, and the given
// per-rank speeds (nil for a homogeneous cluster).
func Uniform(layers int, pl pipeline.Placement, rankSpeed []float64) *Assignment {
	d := pl.NumDevices()
	a := &Assignment{
		LayersPerStage: cost.Partition(layers, pl.NumStages()),
		DeviceOf:       make([]int, d),
	}
	for r := range a.DeviceOf {
		a.DeviceOf[r] = r
	}
	if rankSpeed != nil {
		a.RankSpeed = append([]float64(nil), rankSpeed...)
	}
	return a
}

// Options bounds the co-optimization search.
type Options struct {
	// MemCap is the per-device memory budget in bytes for static training
	// state (framework + weights); 0 disables the cap.
	MemCap float64
	// FrameworkMem is the static framework footprint per device in bytes,
	// subtracted from MemCap before the weight budget is split.
	FrameworkMem float64
	// InFlight[st] is the number of micro-batches stage st retains at its
	// in-flight high water (the schedule's warmup depth); it multiplies the
	// per-micro checkpoint stash in the memory cap. nil means 1 per stage.
	InFlight []int
	// BufBytes is a per-stage byte reserve for transfer staging buffers
	// (activation and gradient p2p), added on top of each stage's floor.
	BufBytes float64
}

// maxIters bounds the partition⇄placement fixpoint: CoOptimize runs at most
// this many partition DPs (the loop converges in 1-3 in practice).
const maxIters = 4

// CoOptimize runs the deterministic partition⇄placement fixpoint: starting
// from the identity placement, it alternates (a) the bottleneck-minimizing
// layer→stage DP under the current per-rank slowdowns and the memory cap
// with (b) the sorted matching of stage loads onto speed slots, until the
// matching returns the placement the DP was run under — the next DP would see
// the same slowdowns and return the same partition — or maxIters DPs have
// run. rankSpeed lists the speed slots of one pipeline replica (see
// RankSpeeds); nil means homogeneous, in which case the result is the
// partition-only optimum with identity placement.
func CoOptimize(lm *LayerModel, pl pipeline.Placement, rankSpeed []float64, opts Options) (*Assignment, error) {
	D := pl.NumDevices()
	S := pl.NumStages()
	L := lm.Layers()
	if L < S {
		return nil, fmt.Errorf("place: %d layers cannot fill %d stages", L, S)
	}
	slots := rankSpeed
	if slots == nil {
		slots = ones(D)
	} else if len(slots) != D {
		return nil, fmt.Errorf("place: %d rank speeds for %d devices", len(slots), D)
	}

	deviceOf := identity(D)
	var part []int
	for iter := 0; iter < maxIters; iter++ {
		part = partitionDP(lm, pl, slowOfRanks(slots, deviceOf), opts)
		perm := matchDevices(lm, pl, part, slots)
		if equalInts(perm, deviceOf) {
			break
		}
		deviceOf = perm
	}
	a := &Assignment{LayersPerStage: part, DeviceOf: deviceOf}
	if rankSpeed != nil {
		a.RankSpeed = make([]float64, D)
		for r, d := range deviceOf {
			a.RankSpeed[r] = slots[d]
		}
	}
	return a, nil
}

// ones returns a slice of n nominal speeds.
func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// identity returns the identity permutation of size n.
func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// equalInts reports element-wise equality.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// slowOfRanks converts speed slots + a rank→slot permutation into per-rank
// slowdown multipliers (1/speed).
func slowOfRanks(slots []float64, deviceOf []int) []float64 {
	slow := make([]float64, len(deviceOf))
	for r, d := range deviceOf {
		s := 1.0
		if d >= 0 && d < len(slots) && slots[d] > 0 {
			s = slots[d]
		}
		slow[r] = 1 / s
	}
	return slow
}

// stageSlow is the effective slowdown of stage st: the slowest rank that
// executes it across partitions (replicated stages are gated by their
// slowest replica).
func stageSlow(pl pipeline.Placement, rankSlow []float64, st int) float64 {
	mx := 1.0
	eachOwner(pl, st, func(d int) {
		if d >= 0 && d < len(rankSlow) && rankSlow[d] > mx {
			mx = rankSlow[d]
		}
	})
	return mx
}

// eachOwner calls f once for every device that owns stage st: two where a
// bidirectional placement holds the stage on both pipelines, one otherwise.
func eachOwner(pl pipeline.Placement, st int, f func(d int)) {
	seen := -1
	for p := 0; p < pl.NumParts(); p++ {
		if d := pl.Device(p, st); d != seen {
			f(d)
			seen = d
		}
	}
}

// partitionDP is the layer→stage dynamic program: minimize over partitions
// the maximum per-stage duration sum(Work[i..j])·stageSlow(s), each stage
// holding at least one layer, subject to each stage's memory floor —
// training state, one micro-batch's full activations, the recompute working
// set, the in-flight checkpoint stashes and the transfer buffers — fitting
// its share of the per-device memory cap. Ties keep the earliest split so
// the answer is deterministic. If the cap is infeasible the even split is
// returned unchanged (the tuner's memory checks reject the point downstream
// exactly as they do today).
//
// The inner scan walks the last cut k downwards and stops at the first k that
// cannot win: the stage's duration (workPfx[l]-workPfx[k])·slow and its
// stash-free memory floor only grow as k falls (Work and the byte arrays are
// non-negative, and IEEE subtraction, addition and multiplication are
// monotone), so once the duration exceeds the best bottleneck found for l, or
// the floor exceeds the cap, no smaller k is accepted either. Both exits are
// strict: a tie must still be visited, because ties keep the earliest split.
func partitionDP(lm *LayerModel, pl pipeline.Placement, rankSlow []float64, opts Options) []int {
	L := lm.Layers()
	S := pl.NumStages()
	workPfx := prefix(lm.Work)
	// A stage's memory floor is its training state plus one micro-batch's
	// full activations (which the checkpointing pass cannot eliminate: the
	// recompute rebuilds them for the backward), so the cap prices each
	// layer at WeightBytes+ActBytes.
	memPerLayer := lm.WeightBytes
	if len(lm.ActBytes) == L {
		memPerLayer = make([]float64, L)
		for i := range memPerLayer {
			memPerLayer[i] = lm.WeightBytes[i] + lm.ActBytes[i]
		}
	}
	bytePfx := prefix(memPerLayer)

	// Per-stage weight budget: the owning device's cap minus framework
	// memory, split evenly over the stages it owns (replicas each hold their
	// own copy, so no further division).
	caps := make([]float64, S)
	for st := range caps {
		caps[st] = -1 // unlimited
	}
	if opts.MemCap > 0 {
		owned := make([]int, pl.NumDevices())
		for st := 0; st < S; st++ {
			eachOwner(pl, st, func(d int) { owned[d]++ })
		}
		for st := 0; st < S; st++ {
			budget := opts.MemCap - opts.FrameworkMem
			n := owned[pl.Device(0, st)]
			if n > 1 {
				budget /= float64(n)
			}
			caps[st] = budget
		}
	}

	inf := math.Inf(1)
	// f[s][l]: minimal bottleneck placing the first l layers on the first s
	// stages; choice[s][l]: the l' the optimum cut at.
	f := make([][]float64, S+1)
	choice := make([][]int, S+1)
	for s := range f {
		f[s] = make([]float64, L+1)
		choice[s] = make([]int, L+1)
		for l := range f[s] {
			f[s][l] = inf
			choice[s][l] = -1
		}
	}
	f[0][0] = 0
	for s := 1; s <= S; s++ {
		slow := stageSlow(pl, rankSlow, s-1)
		inFlight := 1.0
		if st := s - 1; st < len(opts.InFlight) && opts.InFlight[st] > 1 {
			inFlight = float64(opts.InFlight[st])
		}
		for l := s; l <= L-(S-s); l++ {
			// k descends so the recompute working set — the largest single
			// layer's activations in (k..l] — is a running max; accepting on
			// <= keeps the earliest split on ties, like the ascending strict-<
			// walk would.
			var maxAct float64
			for k := l - 1; k >= s-1; k-- {
				if k < len(lm.ActBytes) && lm.ActBytes[k] > maxAct {
					maxAct = lm.ActBytes[k]
				}
				dur := (workPfx[l] - workPfx[k]) * slow
				if dur > f[s][l] {
					break // no smaller k is shorter
				}
				if c := caps[s-1]; c >= 0 {
					need := bytePfx[l] - bytePfx[k] + maxAct + opts.BufBytes
					if need > c {
						break // no smaller k has a lower stash-free floor
					}
					// The stash depends on k's own layer, not monotonically:
					// it rules out this k alone.
					if k < len(lm.StashBytes) {
						need += inFlight * lm.StashBytes[k]
					}
					if need > c {
						continue
					}
				}
				if f[s-1][k] == inf {
					continue
				}
				if dur < f[s-1][k] {
					dur = f[s-1][k]
				}
				if dur <= f[s][l] {
					f[s][l] = dur
					choice[s][l] = k
				}
			}
		}
	}
	if f[S][L] == inf {
		return cost.Partition(L, S)
	}
	part := make([]int, S)
	l := L
	for s := S; s >= 1; s-- {
		k := choice[s][l]
		part[s-1] = l - k
		l = k
	}
	return part
}

// prefix returns the prefix-sum array of xs (len+1 entries, pfx[0] = 0).
func prefix(xs []float64) []float64 {
	pfx := make([]float64, len(xs)+1)
	for i, x := range xs {
		pfx[i+1] = pfx[i] + x
	}
	return pfx
}

// matchDevices assigns ranks to speed slots by sorted matching: ranks in
// decreasing order of the compute load their owned stages carry under the
// partition, speed slots in decreasing speed — the heaviest rank gets the
// fastest device. Ties break on the lower index on both sides, so the
// matching is deterministic; when every slot has the same speed the matching
// is irrelevant and the identity is returned outright.
func matchDevices(lm *LayerModel, pl pipeline.Placement, part []int, slots []float64) []int {
	D := pl.NumDevices()
	equal := true
	for _, s := range slots {
		if s != slots[0] {
			equal = false
			break
		}
	}
	if equal {
		return identity(D)
	}
	workPfx := prefix(lm.Work)
	stageLo := make([]int, len(part))
	lo := 0
	for s, n := range part {
		stageLo[s] = lo
		lo += n
	}
	load := make([]float64, D)
	for st := 0; st < pl.NumStages(); st++ {
		w := workPfx[stageLo[st]+part[st]] - workPfx[stageLo[st]]
		eachOwner(pl, st, func(d int) { load[d] += w })
	}
	ranks := identity(D)
	sort.SliceStable(ranks, func(i, j int) bool { return load[ranks[i]] > load[ranks[j]] })
	devs := identity(D)
	sort.SliceStable(devs, func(i, j int) bool { return slots[devs[i]] > slots[devs[j]] })
	deviceOf := make([]int, D)
	for i, r := range ranks {
		deviceOf[r] = devs[i]
	}
	return deviceOf
}
