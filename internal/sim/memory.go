package sim

import (
	"mario/internal/cost"
	"mario/internal/pipeline"
)

// MemSim is the device-level memory simulation of §5.2: static memory
// (framework + per-stage training state) is accumulated once, and the dynamic
// activation memory is tracked instruction by instruction in list order,
// recording the peak.
//
// Accounting rules (per micro-batch m on stage s):
//
//   - Forward     +ActFull[s]      retained until the Backward releases it;
//   - CkptForward +ActStash[s]     only the stage input survives; while the
//     instruction runs the transient working set ActWork[s] is also live;
//   - Recompute   +ActFull[s]      the activations are restored and live
//     until the Backward;
//   - Backward    −ActFull[s] and, if the forward was checkpointed,
//     −ActStash[s]; while it runs the ActWork[s] gradient working set is
//     live;
//   - BackwardInput  (the B half of a split backward) −ActFull[s] (and
//     −ActStash[s] if checkpointed) +WGradBytes[s]: the input gradient
//     consumes the activations and leaves behind the stash its deferred
//     weight-gradient half still needs. When the estimator provides no
//     WGradBytes, the stash defaults to everything the activations held, so
//     the pair's accounting degenerates to the fused rule exactly;
//   - BackwardWeight −(the stash its BackwardInput left); while it runs the
//     ActWork[s] working set is live;
//   - a Buffered SendAct holds the stage output (ActP2PBytes) from its
//     CkptForward until the send executes (§5.1 pass 4, scenario 2).
//
// A MemSim incrementally replays the accounting above for one device, one
// instruction at a time. The cluster emulator drives it alongside execution
// to attribute memory to instructions in its event stream; each iteration's
// allocations release by iteration end, so stepping the same list repeatedly
// is valid.
type MemSim struct {
	e          *cost.Estimator
	stages     int
	cur, peak  float64
	inst       float64 // instantaneous high-water of the last Step
	bufferedSA []bool
	ckpted     []bool
	// wgrad holds, per (micro, stage) cell, the weight-gradient stash a
	// BackwardInput acquired and its BackwardWeight will release.
	wgrad []float64
}

// NewMemSim builds the tracker for device d of the schedule, starting at the
// device's static memory (framework + owned weights).
func NewMemSim(s *pipeline.Schedule, e *cost.Estimator, d int) *MemSim {
	m := &MemSim{}
	m.rebind(e, s.Micros, s.NumStages(), staticMem(e, s.Resolved().Stages(d)), s.Lists[d])
	return m
}

// staticMem is a device's static memory: the framework's plus the weights of
// the stages it holds.
func staticMem(e *cost.Estimator, stages []int) float64 {
	static := e.FrameworkMem
	for _, st := range stages {
		static += e.WeightBytes[st]
	}
	return static
}

// rebind reinitialises the tracker in place for another device list, reusing
// the bitmap storage; the Simulator's per-device memory walks go through it
// so the peak every call re-derives allocates nothing.
func (m *MemSim) rebind(e *cost.Estimator, micros, stages int, static float64, list []pipeline.Instr) {
	m.e = e
	m.stages = stages
	m.cur, m.peak = static, static

	// bufferedSA marks (micro, stage) pairs whose SendAct is buffered, so
	// the CkptForward must allocate the staging buffer; ckpted marks pairs
	// whose forward ran checkpointed, so the Backward also releases the
	// stash. Both are flat bitmaps indexed micro*S+stage.
	cells := micros * stages
	if cap(m.bufferedSA) >= cells {
		m.bufferedSA = m.bufferedSA[:cells]
		m.ckpted = m.ckpted[:cells]
		m.wgrad = m.wgrad[:cells]
		clear(m.bufferedSA)
		clear(m.ckpted)
		clear(m.wgrad)
	} else {
		m.bufferedSA = make([]bool, cells)
		m.ckpted = make([]bool, cells)
		m.wgrad = make([]float64, cells)
	}
	for _, in := range list {
		if in.Kind == pipeline.SendAct && in.Buffered {
			m.bufferedSA[m.cell(in)] = true
		}
	}
}

func (m *MemSim) cell(in pipeline.Instr) int { return in.Micro*m.stages + in.Stage }

func (m *MemSim) bump(v float64) {
	m.cur += v
	if m.cur > m.inst {
		m.inst = m.cur
	}
	if m.cur > m.peak {
		m.peak = m.cur
	}
}

// transient records a working set live only while the instruction runs.
func (m *MemSim) transient(v float64) {
	if m.cur+v > m.inst {
		m.inst = m.cur + v
	}
	if m.cur+v > m.peak {
		m.peak = m.cur + v
	}
}

// Step applies one instruction's memory effect and returns the resident
// bytes after it completes (transient working sets count toward Peak but
// not toward the returned value).
func (m *MemSim) Step(in pipeline.Instr) float64 {
	e := m.e
	m.inst = m.cur
	switch in.Kind {
	case pipeline.Forward:
		m.bump(e.ActFull[in.Stage])
	case pipeline.CkptForward:
		m.transient(e.ActWork[in.Stage])
		m.bump(e.ActStash[in.Stage])
		m.ckpted[m.cell(in)] = true
		if m.bufferedSA[m.cell(in)] {
			m.bump(e.ActP2PBytes)
		}
	case pipeline.Recompute:
		m.bump(e.ActFull[in.Stage])
	case pipeline.Backward:
		m.transient(e.ActWork[in.Stage])
		m.cur -= e.ActFull[in.Stage]
		if m.ckpted[m.cell(in)] {
			m.cur -= e.ActStash[in.Stage]
		}
	case pipeline.BackwardInput:
		// The input gradient consumes the activations and leaves behind the
		// weight-gradient stash; without a WGradBytes model the stash keeps
		// everything the activations held, making the BI+WG pair's
		// accounting step-for-step identical to the fused Backward's.
		m.transient(e.ActWork[in.Stage])
		released := e.ActFull[in.Stage]
		if m.ckpted[m.cell(in)] {
			released += e.ActStash[in.Stage]
		}
		m.cur -= released
		g := released
		if e.WGradBytes != nil {
			g = e.WGradBytes[in.Stage]
		}
		m.wgrad[m.cell(in)] = g
		m.bump(g)
	case pipeline.BackwardWeight:
		m.transient(e.ActWork[in.Stage])
		m.cur -= m.wgrad[m.cell(in)]
		m.wgrad[m.cell(in)] = 0
	case pipeline.SendAct:
		if in.Buffered {
			m.cur -= e.ActP2PBytes
		}
	}
	return m.cur
}

// Peak returns the high-water mark, transients included.
func (m *MemSim) Peak() float64 { return m.peak }

// PeakMemory returns the per-device peak memory of the schedule under the
// estimator's memory model, without running the timing simulation. The
// cluster emulator reuses it as the allocator ground truth.
func PeakMemory(s *pipeline.Schedule, e *cost.Estimator) []float64 {
	peaks := make([]float64, s.NumDevices())
	var ms MemSim
	for d, list := range s.Lists {
		ms.rebind(e, s.Micros, s.NumStages(), staticMem(e, s.Resolved().Stages(d)), list)
		for _, in := range list {
			ms.Step(in)
		}
		peaks[d] = ms.Peak()
	}
	return peaks
}
