// Package fault is the deterministic fault-injection layer of the cluster
// emulator: a seeded Plan describes hardware degradation — per-device compute
// slowdowns (transient or persistent stragglers), per-link latency/bandwidth
// degradation and probabilistic message drop with bounded retry and
// exponential backoff, and whole-device stall windows — and a compiled
// Injector applies it to a run.
//
// All perturbations are expressed in virtual time, so a faulted run is as
// reproducible as a healthy one: the same seed and plan produce byte-identical
// measured traces regardless of GOMAXPROCS or scheduler interleaving. Drop
// decisions are drawn from per-link tensor.NewStream generators keyed on
// (seed, from, to, channel) and consumed in the sender's program order, which
// only the owning device goroutine ever advances.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mario/internal/tensor"
)

// ErrLinkFailure is returned when a message is dropped on every attempt of
// its bounded retry budget; the error text names the link and the attempt
// count.
var ErrLinkFailure = errors.New("fault: link failure (retry budget exhausted)")

// Channel names accepted by LinkFault.Channel. An empty Channel matches both.
const (
	ChannelAct  = "act"
	ChannelGrad = "grad"
)

// Slowdown multiplies one device's compute durations by Factor inside a
// virtual-time window — a straggler. A zero-valued window (Start = End = 0)
// or End ≤ Start with End == 0 means the slowdown is persistent.
type Slowdown struct {
	// Device is the afflicted device id; -1 applies to every device.
	Device int `json:"device"`
	// Factor multiplies compute durations (> 1 slows the device down).
	Factor float64 `json:"factor"`
	// Start and End bound the active window in virtual seconds; End 0 means
	// open-ended (persistent from Start on).
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
}

// active reports whether the window covers virtual time t.
func (sl *Slowdown) active(t float64) bool {
	return t >= sl.Start && (sl.End <= 0 || t < sl.End)
}

// LinkFault degrades one directed p2p link inside a virtual-time window:
// every transfer pays ExtraLatency, runs at BandwidthFactor of the healthy
// bandwidth, and is dropped with probability DropProb per attempt. Dropped
// messages are retransmitted under the Plan's bounded retry + exponential
// backoff policy; exhausting the budget fails the run with ErrLinkFailure.
type LinkFault struct {
	// From and To are the link endpoints; -1 is a wildcard.
	From int `json:"from"`
	To   int `json:"to"`
	// Channel restricts the fault to "act" or "grad" messages; empty matches
	// both tagged channels.
	Channel string `json:"channel,omitempty"`
	// ExtraLatency is added to every transfer, in virtual seconds.
	ExtraLatency float64 `json:"latency,omitempty"`
	// BandwidthFactor scales the effective bandwidth (0 < f ≤ 1 degrades;
	// 0 means 1, i.e. no bandwidth change). A transfer's wire time is divided
	// by this factor.
	BandwidthFactor float64 `json:"bandwidth,omitempty"`
	// DropProb is the per-attempt probability the message is lost in [0, 1).
	DropProb float64 `json:"drop,omitempty"`
	// Start and End bound the active window in virtual seconds; End 0 means
	// open-ended.
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
}

func (lf *LinkFault) active(t float64) bool {
	return t >= lf.Start && (lf.End <= 0 || t < lf.End)
}

// matches reports whether the fault applies to the (from, to, channel) link.
func (lf *LinkFault) matches(from, to int, channel string) bool {
	if lf.From >= 0 && lf.From != from {
		return false
	}
	if lf.To >= 0 && lf.To != to {
		return false
	}
	if lf.Channel != "" && lf.Channel != channel {
		return false
	}
	return true
}

// Stall freezes one device for Duration virtual seconds at the first
// instruction boundary at or after virtual time At — a transient whole-device
// hang (GC pause, preemption, thermal throttle).
type Stall struct {
	// Device is the stalled device id.
	Device int `json:"device"`
	// At is the virtual time the stall begins.
	At float64 `json:"at"`
	// Duration is the stall length in virtual seconds.
	Duration float64 `json:"duration"`
}

// Plan is a complete, deterministic fault scenario for one emulated run.
// The zero value injects nothing.
type Plan struct {
	// Name labels the plan in reports.
	Name string `json:"name,omitempty"`
	// Seed seeds the drop-decision streams; 0 means 1. Independent of the
	// Machine's jitter seed, so the same faults can be replayed on machines
	// with different noise.
	Seed uint64 `json:"seed,omitempty"`
	// MaxRetries bounds the retransmissions of a dropped message; 0 means 3.
	MaxRetries int `json:"retries,omitempty"`
	// RetryBackoff is the virtual-time base of the exponential backoff: a
	// sender that lost attempt i waits RetryBackoff·2^i before resending.
	// 0 means 500 µs.
	RetryBackoff float64 `json:"backoff,omitempty"`

	Slowdowns []Slowdown  `json:"slowdowns,omitempty"`
	Links     []LinkFault `json:"links,omitempty"`
	Stalls    []Stall     `json:"stalls,omitempty"`
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Slowdowns) == 0 && len(p.Links) == 0 && len(p.Stalls) == 0)
}

// Validate checks the plan against a device count.
func (p *Plan) Validate(devices int) error {
	for i, sl := range p.Slowdowns {
		if sl.Device < -1 || sl.Device >= devices {
			return fmt.Errorf("fault: slowdown %d: device %d out of range [0,%d)", i, sl.Device, devices)
		}
		if sl.Factor <= 0 {
			return fmt.Errorf("fault: slowdown %d: factor %g must be positive", i, sl.Factor)
		}
	}
	for i, lf := range p.Links {
		if lf.From < -1 || lf.From >= devices || lf.To < -1 || lf.To >= devices {
			return fmt.Errorf("fault: link fault %d: endpoint %d->%d out of range [0,%d)", i, lf.From, lf.To, devices)
		}
		if lf.Channel != "" && lf.Channel != ChannelAct && lf.Channel != ChannelGrad {
			return fmt.Errorf("fault: link fault %d: unknown channel %q (want %q or %q)", i, lf.Channel, ChannelAct, ChannelGrad)
		}
		if lf.DropProb < 0 || lf.DropProb >= 1 {
			return fmt.Errorf("fault: link fault %d: drop probability %g outside [0,1)", i, lf.DropProb)
		}
		if lf.BandwidthFactor < 0 || lf.BandwidthFactor > 1 {
			return fmt.Errorf("fault: link fault %d: bandwidth factor %g outside (0,1]", i, lf.BandwidthFactor)
		}
		if lf.ExtraLatency < 0 {
			return fmt.Errorf("fault: link fault %d: negative extra latency %g", i, lf.ExtraLatency)
		}
	}
	for i, st := range p.Stalls {
		if st.Device < 0 || st.Device >= devices {
			return fmt.Errorf("fault: stall %d: device %d out of range [0,%d)", i, st.Device, devices)
		}
		if st.Duration < 0 || st.At < 0 {
			return fmt.Errorf("fault: stall %d: negative time", i)
		}
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fault: negative retry budget %d", p.MaxRetries)
	}
	if p.RetryBackoff < 0 {
		return fmt.Errorf("fault: negative retry backoff %g", p.RetryBackoff)
	}
	return nil
}

// Compile validates the plan and builds its runtime Injector for a cluster of
// the given device count.
func (p *Plan) Compile(devices int) (*Injector, error) {
	if err := p.Validate(devices); err != nil {
		return nil, err
	}
	inj := &Injector{plan: p, devs: make([]DeviceInjector, devices)}
	for d := range inj.devs {
		dev := &inj.devs[d]
		dev.inj = inj
		dev.dev = d
		for i := range p.Slowdowns {
			if sl := &p.Slowdowns[i]; sl.Device == -1 || sl.Device == d {
				dev.slow = append(dev.slow, *sl)
			}
		}
		for i := range p.Stalls {
			if st := &p.Stalls[i]; st.Device == d {
				dev.stalls = append(dev.stalls, *st)
			}
		}
		// Stable order by onset time so TakeStall consumes deterministically.
		sort.SliceStable(dev.stalls, func(i, j int) bool { return dev.stalls[i].At < dev.stalls[j].At })
	}
	return inj, nil
}

// Injector is a Plan compiled against a device count. It holds no shared
// mutable state: everything lives in per-device views that only the owning
// device goroutine touches, so a faulted run stays race-clean.
type Injector struct {
	plan *Plan
	devs []DeviceInjector
}

// Device returns device d's injector view. Each view must only be used from
// the goroutine emulating that device.
func (inj *Injector) Device(d int) *DeviceInjector { return &inj.devs[d] }

// retries returns the plan's retransmission budget.
func (inj *Injector) retries() int {
	if inj.plan.MaxRetries <= 0 {
		return 3
	}
	return inj.plan.MaxRetries
}

// backoff returns the plan's base backoff in virtual seconds.
func (inj *Injector) backoff() float64 {
	if inj.plan.RetryBackoff <= 0 {
		return 500e-6
	}
	return inj.plan.RetryBackoff
}

// Transfer is the outcome of one (possibly retried) faulted p2p transfer.
type Transfer struct {
	// Delay is the total virtual time from posting the send to the message
	// landing: degraded wire time of the successful attempt plus the backoff
	// of every dropped one.
	Delay float64
	// Drops counts the dropped attempts that preceded the success.
	Drops int
}

// DeviceInjector is one device's view of the compiled plan. It is not safe
// for concurrent use; the cluster gives each device goroutine its own.
type DeviceInjector struct {
	inj    *Injector
	dev    int
	slow   []Slowdown
	stalls []Stall
	next   int // first unconsumed stall
	links  map[linkID]*linkState
	// StallVirtual and Drops accumulate what the device injected over the
	// run, for the machine's fault summary.
	StallVirtual float64
	Drops        int
	Slowed       int
}

type linkID struct {
	to      int
	channel string
}

// linkState is the per-outgoing-link retry RNG and the matching plan faults.
type linkState struct {
	faults []*LinkFault
	rng    tensor.RNG
}

// ComputeFactor returns the combined slowdown factor for a compute
// instruction starting at virtual time t (1 when the device is healthy). A
// nonzero factor is recorded in the device's Slowed counter.
func (d *DeviceInjector) ComputeFactor(t float64) float64 {
	f := 1.0
	for i := range d.slow {
		if d.slow[i].active(t) {
			f *= d.slow[i].Factor
		}
	}
	if f != 1 {
		d.Slowed++
	}
	return f
}

// TakeStall consumes every pending stall whose onset is at or before virtual
// time t and returns their summed duration, by which the caller advances its
// clock.
func (d *DeviceInjector) TakeStall(t float64) (delay float64) {
	for d.next < len(d.stalls) && d.stalls[d.next].At <= t {
		delay += d.stalls[d.next].Duration
		d.next++
	}
	d.StallVirtual += delay
	return delay
}

// Transfer applies the plan's link faults to one message sent at virtual time
// t on the (d.dev → to, channel) link with healthy wire time base. It returns
// the perturbed outcome, or ErrLinkFailure when every attempt in the retry
// budget was dropped. Drop decisions come from a per-link deterministic
// stream, so results do not depend on goroutine interleaving.
func (d *DeviceInjector) Transfer(to int, channel string, base, t float64) (Transfer, error) {
	ls := d.link(to, channel)
	tr := Transfer{Delay: base}
	if ls == nil {
		return tr, nil
	}
	wire := base
	drop := 0.0
	for _, lf := range ls.faults {
		if !lf.active(t) {
			continue
		}
		wire += lf.ExtraLatency
		if bf := lf.BandwidthFactor; bf > 0 && bf < 1 {
			wire = lf.ExtraLatency + (wire-lf.ExtraLatency)/bf
		}
		// Independent faults compose: the message survives only if no active
		// fault drops it.
		drop = 1 - (1-drop)*(1-lf.DropProb)
	}
	tr.Delay = wire
	if drop <= 0 {
		return tr, nil
	}
	budget := d.inj.retries()
	backoff := d.inj.backoff()
	for attempt := 0; ; attempt++ {
		if ls.rng.Float64() >= drop {
			return tr, nil
		}
		tr.Drops++
		d.Drops++
		if attempt >= budget {
			return tr, fmt.Errorf("%w: link %d->%d[%s] dropped %d attempts",
				ErrLinkFailure, d.dev, to, channel, tr.Drops)
		}
		// The sender notices the loss after one backoff period and resends;
		// the lost attempt's wire time overlaps the wait.
		tr.Delay += backoff * math.Pow(2, float64(attempt))
	}
}

// link lazily resolves the fault state of the (d.dev → to, channel) link; nil
// when no plan fault can ever match it.
func (d *DeviceInjector) link(to int, channel string) *linkState {
	id := linkID{to: to, channel: channel}
	if ls, ok := d.links[id]; ok {
		return ls
	}
	var faults []*LinkFault
	for i := range d.inj.plan.Links {
		if lf := &d.inj.plan.Links[i]; lf.matches(d.dev, to, channel) {
			faults = append(faults, lf)
		}
	}
	var ls *linkState
	if len(faults) > 0 {
		seed := d.inj.plan.Seed
		if seed == 0 {
			seed = 1
		}
		ch := uint64(0)
		if channel == ChannelGrad {
			ch = 1
		}
		ls = &linkState{
			faults: faults,
			rng:    *tensor.NewStream(seed, uint64(d.dev)<<20|uint64(to)<<2|ch),
		}
	}
	if d.links == nil {
		d.links = make(map[linkID]*linkState)
	}
	d.links[id] = ls
	return ls
}
