// Package sim implements Mario's simulator-based performance model (§5.2).
//
// Given a schedule (instruction lists) and a latency/memory estimator, the
// simulator derives the earliest start time of every instruction by
// propagating the horizontal dependencies (list order within a device) and
// vertical dependencies (matched communication pairs across devices) — the
// dynamic-programming formulation of the paper, with no hand-identified
// critical path. It also performs the device-level memory simulation and
// flags out-of-memory configurations.
//
// Communication is eager, as NCCL-style tagged p2p is: a send completes into a
// FIFO link per (sender, receiver, channel) after the launch overhead, and a
// receive pops the link's head — which must be its matched send — ending at
// max(start + overhead, arrival).
//
// The paper reports ~700 ms to simulate GPT3-13B (64 micro-batches, Chimera,
// 32 GPUs); this implementation precomputes all cross-device matches into
// flat arrays so the propagation loop runs allocation-free, and simulates
// the same size in a few milliseconds.
package sim

import (
	"errors"

	"mario/internal/cost"
	"mario/internal/obs"
	"mario/internal/pipeline"
)

// ErrDeadlock is returned when communication can make no progress — every
// unfinished device waits on a receive whose send is never reached (an eager
// receive cycle); the error text names a blocked instruction.
var ErrDeadlock = errors.New("sim: communication deadlock")

// ErrCommMismatch is returned when a receive pops a message other than the
// one it expects from the FIFO link, i.e. the schedule posts sends and
// receives on a device pair in inconsistent orders. This is the failure mode
// pass 4 of the graph tuner must avoid by buffering SendAct instructions.
var ErrCommMismatch = errors.New("sim: send/recv order mismatch on link")

// Options configures a simulation run.
type Options struct {
	// DP is the data-parallel degree; it sizes the cool-down all-reduce.
	// Zero means 1 (no data parallelism).
	DP int
	// MemLimit is the per-device memory capacity in bytes; peaks above it
	// mark the result OOM. Zero disables the check.
	MemLimit float64
	// NoTimeline skips recording per-instruction records (saves allocation
	// in search loops that only need totals).
	NoTimeline bool
}

// Result is the simulator output.
type Result struct {
	// Total is the iteration makespan in seconds.
	Total float64
	// Timeline holds one record per instruction, device-major in list
	// order like the stream cluster.Execute returns for one iteration: its
	// identity, peer, payload, simulated start and end, receive wait and the
	// modeled memory after it (nil when Options.NoTimeline is set). It is
	// derived, never stored: plans omit it, and a plan's reader re-simulates
	// a candidate to get it.
	Timeline []obs.Event `json:"-"`
	// PeakMem is the per-device peak memory in bytes.
	PeakMem []float64
	// OOM reports whether any device exceeded Options.MemLimit.
	OOM bool
	// OOMDevices lists the devices that exceeded the limit.
	OOMDevices []int
	// ComputeBusy is the per-device time spent in compute instructions.
	ComputeBusy []float64
	// SamplesPerSec is the end-to-end training throughput
	// (micros × micro-batch size × dp / Total).
	SamplesPerSec float64
}

// BubbleRatio returns the fraction of the makespan the given device spends
// outside compute instructions.
func (r *Result) BubbleRatio(dev int) float64 {
	if r.Total <= 0 {
		return 0
	}
	return 1 - r.ComputeBusy[dev]/r.Total
}

// MinMaxPeak returns the smallest and largest per-device peak memory, the
// (Min,Max GB) columns of Table 5.
func (r *Result) MinMaxPeak() (lo, hi float64) {
	lo, hi = r.PeakMem[0], r.PeakMem[0]
	for _, p := range r.PeakMem[1:] {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return lo, hi
}

// instClass partitions instruction kinds by simulator behaviour.
type instClass uint8

const (
	classCompute instClass = iota
	classSend
	classRecv
)

// meta is the precomputed per-instruction simulation metadata. The fields are
// ordered so that one takes 32 bytes.
type meta struct {
	// dur is the compute duration (overhead included) for classCompute.
	dur float64
	// comm is the transfer latency for sends/receives.
	comm float64
	// matchDev/matchIdx locate the paired instruction for comm classes
	// (-1 when unmatched, which Validate would reject). Until the engine
	// resolves the matches, matchIdx holds the partner's entry in the
	// communication index instead.
	matchDev, matchIdx int32
	// link indexes the FIFO this comm instruction uses.
	link  int32
	class instClass
	// compute marks kinds counted into ComputeBusy.
	compute bool
	// late is run state, not metadata: the last run found this
	// receive's message arriving after the device reached it, so its start
	// was fixed by the matched send, not by list order. Every run rewrites
	// it on every receive; CriticalChain reads it.
	late bool
}

// Simulate runs the dynamic-programming timeline and memory simulation.
//
// It delegates to a zero-value Simulator, so the package-level function and a
// reused engine are the same code path; search loops that evaluate many
// schedule candidates should hold a Simulator to reuse its buffers across
// calls.
func Simulate(s *pipeline.Schedule, e *cost.Estimator, opt Options) (*Result, error) {
	var eng Simulator
	return eng.Simulate(s, e, opt)
}
