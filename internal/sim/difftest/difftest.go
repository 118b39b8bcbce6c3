// Package difftest is the differential harness behind the simulator's
// equivalence guarantee: every result is a pure function of (schedule,
// estimator, options), so a reused engine — whatever its retained buffers
// hold — must be byte-identical to a fresh one: same makespan bits, same
// peaks, same timeline records, same error. The harness generates seeded random
// workloads (schedule, estimator, options), drives a long-lived engine through
// randomized single-device mutations (fresh lists, in-place edits, reverts)
// and estimator changes (a copy under a new pointer, an edit in place), and
// after every step checks the reused engine's answer against a fresh engine's
// on the same schedule, failing on the first diverging byte of a canonical
// encoding — and checks both against Reference, a naive simulator that shares
// no code with the engine. Only tests import this package.
package difftest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mario/internal/cost"
	"mario/internal/graph"
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
		f := 0.5 + rng.Float64()
		est.FwTime[st] *= f
		est.RcTime[st] *= f
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
		graph.ApplyCheckpoint(s)
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

// Desc returns a description of the last mutation (for failure messages).
func (w *Workload) Desc() string { return w.desc }

// seed initializes the mutation source and revert history of a hand-built
// workload; NewWorkload does this itself.
func (w *Workload) seed(s int64) {
	w.rng = rand.New(rand.NewSource(s))
	w.prev = make([][]pipeline.Instr, w.S.NumDevices())
}

// Mutate applies one random single-device mutation and reports a
// description of it. Mutations may produce schedules that deadlock or
// mismatch — the differential property covers error results too — and always
// change exactly one device: the copy-on-write candidate shape a search sends,
// plus an in-place edit of the list an engine saw last.
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
		w.S.SetList(d, nl)
		w.desc = fmt.Sprintf("dev%d: swap %d<->%d", d, i, j)
	case 1: // rotate an instruction to an earlier slot (prepose-like)
		j := 1 + rng.Intn(n-1)
		i := j - 1 - rng.Intn(minInt(16, j))
		nl := append([]pipeline.Instr(nil), old...)
		moved := nl[j]
		copy(nl[i+1:j+1], nl[i:j])
		nl[i] = moved
		w.prev[d] = old
		w.S.SetList(d, nl)
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
		w.S.SetList(d, nl)
		w.desc = fmt.Sprintf("dev%d: flip Buffered at %d", d, i)
	case 3: // swap two nearby instructions in the list itself, no SetList
		i, j := nearPair(rng, n)
		list := w.S.MutableList(d)
		list[i], list[j] = list[j], list[i]
		w.desc = fmt.Sprintf("dev%d: swap %d<->%d in place", d, i, j)
	default: // restore the list the last mutation replaced
		w.S.SetList(d, w.prev[d])
		w.prev[d] = nil
		w.desc = fmt.Sprintf("dev%d: revert", d)
	}
	return w.desc
}

// nearPair picks list indexes i < j at most 16 apart in a list of n ≥ 2.
func nearPair(rng *rand.Rand, n int) (int, int) {
	i := rng.Intn(n - 1)
	return i, i + 1 + rng.Intn(minInt(16, n-i-1))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Harness drives a long-lived engine against fresh-engine and naive references.
type Harness struct {
	W *Workload
	// Reused is the engine under test: it lives across steps, so every call
	// meets whatever the previous ones left in its buffers.
	Reused sim.Simulator
	steps  int
}

// NewHarness builds a harness over a fresh workload for the seed.
func NewHarness(seed int64) (*Harness, error) {
	w, err := NewWorkload(seed)
	if err != nil {
		return nil, err
	}
	return &Harness{W: w}, nil
}

// Step advances the harness once: maybe mutate or revert a device, maybe
// change the estimator (an equal copy under a new pointer, or one stage's
// forward time scaled in place under the same one), then check reused engine ≡
// fresh engine ≡ reference, byte for byte. A non-nil error is a disproof of
// the equivalence.
func (h *Harness) Step() error {
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
	if err := Compare(got, gotErr, fresh, freshErr); err != nil {
		return fmt.Errorf("step %d (%s): reused vs fresh engine: %w", h.steps, w.desc, err)
	}
	ref, refErr := Reference(w.S, w.Est, opt)
	if err := compareTiming(fresh, freshErr, ref, refErr); err != nil {
		return fmt.Errorf("step %d (%s): engine vs reference: %w", h.steps, w.desc, err)
	}
	return nil
}

// Run executes n steps and returns the first divergence, if any.
func (h *Harness) Run(n int) error {
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
		return Compare(a, aErr, ref, refErr)
	}
	if math.Float64bits(a.Total) != math.Float64bits(ref.Total) {
		return fmt.Errorf("makespan %v, reference %v", a.Total, ref.Total)
	}
	if a.Timeline == nil {
		return nil
	}
	if len(a.Timeline) != len(ref.Timeline) {
		return fmt.Errorf("%d records, reference %d", len(a.Timeline), len(ref.Timeline))
	}
	for k, want := range ref.Timeline {
		got := a.Timeline[k]
		got.Mem = 0 // the reference models time only
		if got != want {
			return fmt.Errorf("record %d: %+v, reference %+v", k, got, want)
		}
	}
	return nil
}

// Compare checks two (result, error) pairs for byte-identical agreement:
// the errors must match sentinel-for-sentinel, and the results must encode
// to identical bytes. The returned error names the first diverging byte and
// the canonical section it falls in.
func Compare(a *sim.Result, aErr error, b *sim.Result, bErr error) error {
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
	ca, cb := Canon(a), Canon(b)
	if off, section := Diff(ca, cb); off >= 0 {
		return fmt.Errorf("results diverge at byte %d (%s): %s vs %s",
			off, section, hexAround(ca, off), hexAround(cb, off))
	}
	return nil
}

// canonSection tags each region of the canonical encoding so a diverging
// byte offset maps back to a named field.
type canonSection struct {
	name string
	end  int
}

type canonBuf struct {
	b        []byte
	sections []canonSection
}

func (c *canonBuf) section(name string) {
	c.sections = append(c.sections, canonSection{name: name, end: -1})
}

func (c *canonBuf) close() {
	if n := len(c.sections); n > 0 && c.sections[n-1].end < 0 {
		c.sections[n-1].end = len(c.b)
	}
}

func (c *canonBuf) f64(v float64) {
	c.b = binary.BigEndian.AppendUint64(c.b, math.Float64bits(v))
}

func (c *canonBuf) i64(v int64) {
	c.b = binary.BigEndian.AppendUint64(c.b, uint64(v))
}

func (c *canonBuf) bool(v bool) {
	if v {
		c.b = append(c.b, 1)
	} else {
		c.b = append(c.b, 0)
	}
}

func (c *canonBuf) instr(in pipeline.Instr) {
	c.b = append(c.b, byte(in.Kind))
	c.i64(int64(in.Micro))
	c.i64(int64(in.Part))
	c.i64(int64(in.Stage))
	c.bool(in.Buffered)
}

// Canon serializes a Result canonically: float bits big-endian, slices
// length-prefixed, timeline records in device-then-list order. Two Results are
// equal as values iff their canonical encodings are equal as bytes.
func Canon(r *sim.Result) []byte {
	c := &canonBuf{}
	c.section("Total")
	c.f64(r.Total)
	c.close()
	c.section("SamplesPerSec")
	c.f64(r.SamplesPerSec)
	c.close()
	c.section("OOM")
	c.bool(r.OOM)
	c.close()
	c.section("OOMDevices")
	c.i64(int64(len(r.OOMDevices)))
	for _, d := range r.OOMDevices {
		c.i64(int64(d))
	}
	c.close()
	c.section("PeakMem")
	c.i64(int64(len(r.PeakMem)))
	for _, p := range r.PeakMem {
		c.f64(p)
	}
	c.close()
	c.section("ComputeBusy")
	c.i64(int64(len(r.ComputeBusy)))
	for _, p := range r.ComputeBusy {
		c.f64(p)
	}
	c.close()
	c.section("Timeline")
	c.bool(r.Timeline != nil)
	c.i64(int64(len(r.Timeline)))
	for _, rec := range r.Timeline {
		c.instr(rec.Instr)
		for _, v := range []int{rec.Device, rec.Iter, rec.Peer} {
			c.i64(int64(v))
		}
		for _, v := range []float64{rec.Start, rec.End, rec.Wait, rec.Bytes, rec.Mem} {
			c.f64(v)
		}
	}
	c.close()
	return c.markers()
}

// markers flattens the tagged buffer: the section table rides in front so
// Diff can name the section of an offset without re-deriving the layout.
func (c *canonBuf) markers() []byte {
	// Header: count, then (name length, name bytes, end offset) per section;
	// payload follows. Offsets in Diff are payload-relative.
	hdr := binary.BigEndian.AppendUint64(nil, uint64(len(c.sections)))
	for _, s := range c.sections {
		hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(s.name)))
		hdr = append(hdr, s.name...)
		hdr = binary.BigEndian.AppendUint64(hdr, uint64(s.end))
	}
	return append(hdr, c.b...)
}

// Diff returns the first payload byte where the two canonical encodings
// diverge and the section it falls in, or (-1, "") when identical.
func Diff(a, b []byte) (int, string) {
	sa, pa := splitCanon(a)
	sb, pb := splitCanon(b)
	n := minInt(len(pa), len(pb))
	for i := 0; i < n; i++ {
		if pa[i] != pb[i] {
			return i, sectionAt(sa, i)
		}
	}
	if len(pa) != len(pb) {
		longer := sa
		if len(pb) > len(pa) {
			longer = sb
		}
		return n, sectionAt(longer, n)
	}
	return -1, ""
}

func splitCanon(buf []byte) ([]canonSection, []byte) {
	if len(buf) < 8 {
		return nil, buf
	}
	n := binary.BigEndian.Uint64(buf)
	off := 8
	sections := make([]canonSection, 0, n)
	for i := uint64(0); i < n; i++ {
		if off+8 > len(buf) {
			return nil, buf
		}
		l := int(binary.BigEndian.Uint64(buf[off:]))
		off += 8
		if off+l+8 > len(buf) {
			return nil, buf
		}
		name := string(buf[off : off+l])
		off += l
		end := int(binary.BigEndian.Uint64(buf[off:]))
		off += 8
		sections = append(sections, canonSection{name: name, end: end})
	}
	return sections, buf[off:]
}

func sectionAt(sections []canonSection, off int) string {
	for _, s := range sections {
		if off < s.end {
			return s.name
		}
	}
	return "trailing"
}

func hexAround(buf []byte, off int) string {
	_, p := splitCanon(buf)
	lo := maxInt(0, off-4)
	hi := minInt(len(p), off+4)
	return fmt.Sprintf("%x", p[lo:hi])
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
