// Package difftest is the differential harness behind the simulator's
// equivalence guarantee: every result is a pure function of (schedule,
// estimator, options), so a reused engine — whatever its retained buffers
// hold — must be bit-identical to a fresh one: same makespan bits, same
// peaks, same timeline records, same error. The harness generates seeded random
// workloads (schedule, estimator, options), drives a long-lived engine through
// randomized single-device mutations (fresh lists, in-place edits, reverts)
// and estimator changes (a copy under a new pointer, an edit in place), and
// after every step checks the reused engine's answer against a fresh engine's
// on the same schedule, field by field and floats by their bits, failing on
// the first diverging field — and checks both against Reference, a naive
// simulator that shares no code with the engine. Only tests import this
// package.
package difftest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
)

// Workload is one randomized simulation subject: a schedule, an estimator,
// and the simulation options every check of this workload uses. Mutations
// rewrite single devices, either into a fresh list — keeping the retired one,
// so a revert can restore it — or in place.
type Workload struct {
	S   *pipeline.Schedule
	Est *cost.Estimator
	Opt sim.Options

	rng *rand.Rand
	// prev holds, per device, the list the last mutation replaced (nil when
	// the device was never mutated or was just reverted).
	prev [][]pipeline.Instr
	// desc describes the last mutation for failure messages.
	desc string
}

// NewWorkload builds a deterministic random workload from the seed: scheme,
// device count, micro-batch count, per-stage cost perturbations, optional
// checkpoint passes, memory limit, and DP degree all derive from the seed.
func NewWorkload(seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	devs := 2 + rng.Intn(3) // 2..4
	micros := 3 + rng.Intn(6)
	return newWorkload(rng, devs, micros)
}

// NewWorkloadShape is NewWorkload at a given size (a scheme that needs even
// counts rounds them up): the engine's differential property is as visible on
// four devices as on sixteen, a search's critical chains are not.
func NewWorkloadShape(seed int64, devs, micros int) (*Workload, error) {
	return newWorkload(rand.New(rand.NewSource(seed)), devs, micros)
}

func newWorkload(rng *rand.Rand, devs, micros int) (*Workload, error) {
	w := &Workload{rng: rng}
	var sch pipeline.Scheme
	switch rng.Intn(5) {
	case 0:
		sch = pipeline.Scheme1F1B
	case 1:
		sch = pipeline.SchemeChimera
		if devs%2 != 0 {
			devs++
		}
		if micros%2 != 0 {
			micros++
		}
	case 2:
		sch = pipeline.SchemeZBH1
	case 3:
		sch = pipeline.SchemeDualPipeD
		if devs%2 != 0 {
			devs++
		}
		if micros%2 != 0 {
			micros++
		}
	default:
		sch = pipeline.SchemeInterleave
	}
	s, err := scheme.Build(sch, scheme.Config{Devices: devs, Micros: micros, Chunks: 2})
	if err != nil {
		// Scheme constraints (odd Chimera shapes, indivisible Interleave):
		// fall back to 1F1B, which accepts any shape.
		s, err = scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: devs, Micros: micros})
		if err != nil {
			return nil, err
		}
	}

	stages := s.NumStages()
	est := cost.Uniform(stages, 4+rng.Float64()*4, 6+rng.Float64()*6, 1+rng.Float64())
	for st := 0; st < stages; st++ {
		est.FwTime[st] *= 0.5 + rng.Float64()
		est.BwTime[st] *= 0.5 + rng.Float64()
		est.ActFull[st] *= 0.5 + rng.Float64()
		est.ActStash[st] *= 0.5 + rng.Float64()
		est.ActWork[st] *= 0.5 + rng.Float64()
		est.WeightBytes[st] *= 0.5 + rng.Float64()
	}
	est.LinkLatency = rng.Float64() * 0.5
	est.LaunchOverhead = rng.Float64() * 0.2
	est.FrameworkMem = rng.Float64() * 4
	// Half the workloads model the split-backward weight-gradient stash
	// explicitly; the rest leave WGradBytes nil to exercise the fused-
	// equivalent fallback accounting.
	if rng.Intn(2) == 0 {
		est.WGradBytes = make([]float64, stages)
		for st := range est.WGradBytes {
			est.WGradBytes[st] = est.ActFull[st] * rng.Float64()
		}
	}

	if rng.Intn(2) == 0 {
		s = graph.ApplyCheckpoint(s)
		graph.OverlapRecompute(s)
		if rng.Intn(2) == 0 {
			graph.RemoveRedundancy(s)
		}
	}

	opt := sim.Options{}
	if rng.Intn(3) == 0 {
		opt.DP = 1 + rng.Intn(3)
	}
	if rng.Intn(2) == 0 {
		// A limit between the smallest and largest device peak makes the OOM
		// flags and device sets part of the differential surface.
		peaks := sim.PeakMemory(s, est)
		lo, hi := peaks[0], peaks[0]
		for _, p := range peaks {
			lo, hi = math.Min(lo, p), math.Max(hi, p)
		}
		opt.MemLimit = lo + rng.Float64()*(hi-lo+1)
	}

	w.S = s
	w.Est = est
	w.prev = make([][]pipeline.Instr, s.NumDevices())
	w.Opt = opt
	return w, nil
}

// seed initializes the mutation source and revert history of a hand-built
// workload; NewWorkload does this itself.
func (w *Workload) seed(s int64) {
	w.rng = rand.New(rand.NewSource(s))
	w.prev = make([][]pipeline.Instr, w.S.NumDevices())
}

// Mutate applies one random single-device mutation and reports a
// description of it. Mutations may produce schedules that deadlock or
// mismatch — the differential property covers error results too — and always
// change exactly one device's list, which the workload owns: most put an
// edited copy in its place and keep the old list to revert to, as a candidate
// is built beside its incumbent; one edits the list the engine saw last in
// place, as a prepose round edits its incumbent.
func (w *Workload) Mutate() string {
	rng := w.rng
	d := rng.Intn(w.S.NumDevices())
	old := w.S.Lists[d]
	n := len(old)
	if n < 2 {
		w.desc = "noop (short list)"
		return w.desc
	}

	kind := rng.Intn(5)
	if kind == 4 && w.prev[d] == nil {
		kind = rng.Intn(4)
	}
	switch kind {
	case 0: // swap two nearby instructions
		i, j := nearPair(rng, n)
		nl := append([]pipeline.Instr(nil), old...)
		nl[i], nl[j] = nl[j], nl[i]
		w.prev[d] = old
		w.S.Lists[d] = nl
		w.desc = fmt.Sprintf("dev%d: swap %d<->%d", d, i, j)
	case 1: // rotate an instruction to an earlier slot (prepose-like)
		j := 1 + rng.Intn(n-1)
		i := j - 1 - rng.Intn(min(16, j))
		nl := append([]pipeline.Instr(nil), old...)
		moved := nl[j]
		copy(nl[i+1:j+1], nl[i:j])
		nl[i] = moved
		w.prev[d] = old
		w.S.Lists[d] = nl
		w.desc = fmt.Sprintf("dev%d: rotate %d->%d", d, j, i)
	case 2: // toggle a SendAct's Buffered flag
		var sends []int
		for i, in := range old {
			if in.Kind == pipeline.SendAct {
				sends = append(sends, i)
			}
		}
		if len(sends) == 0 {
			w.desc = "noop (no sends)"
			return w.desc
		}
		i := sends[rng.Intn(len(sends))]
		nl := append([]pipeline.Instr(nil), old...)
		nl[i].Buffered = !nl[i].Buffered
		w.prev[d] = old
		w.S.Lists[d] = nl
		w.desc = fmt.Sprintf("dev%d: flip Buffered at %d", d, i)
	case 3: // swap two nearby instructions in the list itself
		i, j := nearPair(rng, n)
		old[i], old[j] = old[j], old[i]
		w.desc = fmt.Sprintf("dev%d: swap %d<->%d in place", d, i, j)
	default: // restore the list the last mutation replaced
		w.S.Lists[d] = w.prev[d]
		w.prev[d] = nil
		w.desc = fmt.Sprintf("dev%d: revert", d)
	}
	return w.desc
}

// nearPair picks list indexes i < j at most 16 apart in a list of n ≥ 2.
func nearPair(rng *rand.Rand, n int) (int, int) {
	i := rng.Intn(n - 1)
	return i, i + 1 + rng.Intn(min(16, n-i-1))
}

// harness drives a long-lived engine against fresh-engine and naive references.
type harness struct {
	W *Workload
	// Reused is the engine under test: it lives across steps, so every call
	// meets whatever the previous ones left in its buffers.
	Reused sim.Simulator
	steps  int
}

// newHarness builds a harness over a fresh workload for the seed.
func newHarness(seed int64) (*harness, error) {
	w, err := NewWorkload(seed)
	if err != nil {
		return nil, err
	}
	return &harness{W: w}, nil
}

// Step advances the harness once: maybe mutate or revert a device, maybe
// change the estimator (an equal copy under a new pointer, or one stage's
// forward time scaled in place under the same one), then check reused engine ≡
// fresh engine ≡ reference, bit for bit. A non-nil error is a disproof of
// the equivalence.
func (h *harness) Step() error {
	w := h.W
	rng := w.rng
	h.steps++

	if h.steps > 1 && rng.Intn(4) != 0 {
		w.Mutate()
	}
	switch rng.Intn(12) {
	case 0:
		est := *w.Est
		w.Est = &est
	case 1:
		st := rng.Intn(len(w.Est.FwTime))
		w.Est.FwTime[st] *= 0.5 + rng.Float64()
	}

	opt := w.Opt
	opt.NoTimeline = rng.Intn(3) == 0
	got, gotErr := h.Reused.Simulate(w.S, w.Est, opt)
	fresh, freshErr := sim.Simulate(w.S, w.Est, opt)
	if err := compare(got, gotErr, fresh, freshErr); err != nil {
		return fmt.Errorf("step %d (%s): reused vs fresh engine: %w", h.steps, w.desc, err)
	}
	ref, refErr := Reference(w.S, w.Est, opt)
	if err := compareTiming(fresh, freshErr, ref, refErr); err != nil {
		return fmt.Errorf("step %d (%s): engine vs reference: %w", h.steps, w.desc, err)
	}
	return nil
}

// Run executes n steps and returns the first divergence, if any.
func (h *harness) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := h.Step(); err != nil {
			return err
		}
	}
	return nil
}

// compareTiming checks an engine outcome against the reference simulator's:
// the same error class, and equal Total and records, memory aside (the
// engine's timeline is absent under NoTimeline; the makespan is compared
// either way).
func compareTiming(a *sim.Result, aErr error, ref *sim.Result, refErr error) error {
	if aErr != nil || refErr != nil {
		return compare(a, aErr, ref, refErr)
	}
	if !sameBits(a.Total, ref.Total) {
		return fmt.Errorf("Total: %v, reference %v", a.Total, ref.Total)
	}
	if a.Timeline == nil {
		return nil
	}
	if len(a.Timeline) != len(ref.Timeline) {
		return fmt.Errorf("Timeline: %d records, reference %d", len(a.Timeline), len(ref.Timeline))
	}
	for k, want := range ref.Timeline {
		got := a.Timeline[k]
		got.Mem = 0 // the reference models time only
		if field := eventDiff(got, want); field != "" {
			return fmt.Errorf("Timeline[%d].%s: %+v, reference %+v", k, field, got, want)
		}
	}
	return nil
}

// compare checks two (result, error) pairs for bit-identical agreement: the
// errors must match sentinel-for-sentinel, and the results field by field,
// floats by their bits. The returned error starts with the first diverging
// field and its index, e.g. "PeakMem[1]:" or "Timeline[3].End:".
func compare(a *sim.Result, aErr error, b *sim.Result, bErr error) error {
	if (aErr == nil) != (bErr == nil) {
		return fmt.Errorf("error mismatch: %v vs %v", aErr, bErr)
	}
	if aErr != nil {
		for _, sentinel := range []error{sim.ErrDeadlock, sim.ErrCommMismatch} {
			if errors.Is(aErr, sentinel) != errors.Is(bErr, sentinel) {
				return fmt.Errorf("error class mismatch: %v vs %v", aErr, bErr)
			}
		}
		return nil
	}
	switch {
	case !sameBits(a.Total, b.Total):
		return fmt.Errorf("Total: %v vs %v", a.Total, b.Total)
	case !sameBits(a.SamplesPerSec, b.SamplesPerSec):
		return fmt.Errorf("SamplesPerSec: %v vs %v", a.SamplesPerSec, b.SamplesPerSec)
	case a.OOM != b.OOM:
		return fmt.Errorf("OOM: %v vs %v", a.OOM, b.OOM)
	}
	if len(a.OOMDevices) != len(b.OOMDevices) {
		return fmt.Errorf("OOMDevices: %v vs %v", a.OOMDevices, b.OOMDevices)
	}
	for i := range a.OOMDevices {
		if a.OOMDevices[i] != b.OOMDevices[i] {
			return fmt.Errorf("OOMDevices[%d]: %d vs %d", i, a.OOMDevices[i], b.OOMDevices[i])
		}
	}
	if err := floatsDiff("PeakMem", a.PeakMem, b.PeakMem); err != nil {
		return err
	}
	if err := floatsDiff("ComputeBusy", a.ComputeBusy, b.ComputeBusy); err != nil {
		return err
	}
	if (a.Timeline == nil) != (b.Timeline == nil) || len(a.Timeline) != len(b.Timeline) {
		return fmt.Errorf("Timeline: %d records (nil %v) vs %d (nil %v)",
			len(a.Timeline), a.Timeline == nil, len(b.Timeline), b.Timeline == nil)
	}
	for k := range a.Timeline {
		if field := eventDiff(a.Timeline[k], b.Timeline[k]); field != "" {
			return fmt.Errorf("Timeline[%d].%s: %+v vs %+v", k, field, a.Timeline[k], b.Timeline[k])
		}
	}
	return nil
}

// floatsDiff names the first index at which two float slices differ in
// length or bits.
func floatsDiff(field string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d values vs %d", field, len(a), len(b))
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return fmt.Errorf("%s[%d]: %v vs %v", field, i, a[i], b[i])
		}
	}
	return nil
}

// eventDiff returns the first field in which two timeline records differ,
// floats by their bits, or "" when they are identical.
func eventDiff(a, b obs.Event) string {
	switch {
	case a.Instr != b.Instr:
		return "Instr"
	case a.Device != b.Device:
		return "Device"
	case a.Iter != b.Iter:
		return "Iter"
	case a.Peer != b.Peer:
		return "Peer"
	case !sameBits(a.Start, b.Start):
		return "Start"
	case !sameBits(a.End, b.End):
		return "End"
	case !sameBits(a.Wait, b.Wait):
		return "Wait"
	case !sameBits(a.Bytes, b.Bytes):
		return "Bytes"
	case !sameBits(a.Mem, b.Mem):
		return "Mem"
	}
	return ""
}

// sameBits reports whether two floats are the same bits: -0 is not 0, and
// a NaN equals itself.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
