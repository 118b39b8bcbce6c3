package obs

import (
	"fmt"
	"sort"
	"strings"

	"mario/internal/pipeline"
)

// DeviceStats aggregates one device's measured behaviour over a run.
type DeviceStats struct {
	Device int
	// Instrs counts executed instructions; Sends and Recvs count p2p
	// messages by direction.
	Instrs, Sends, Recvs int
	// Busy is the time spent outside p2p communication — the same
	// classification as sim.Result.ComputeBusy, so measured and predicted
	// bubble ratios are directly comparable.
	Busy float64
	// RecvStall sums the device's p2p queue waits: how long its receives sat
	// idle before their messages landed. Sends are eager and never wait.
	RecvStall float64
	// PeakMem is the high-water mark of the events' modeled memory, and
	// PeakKind the kind of the instruction executing when it was reached.
	PeakMem  float64
	PeakKind pipeline.Kind
}

// LinkStats aggregates the traffic of one directed p2p link.
type LinkStats struct {
	From, To int
	// Channel is "act" or "grad" (pipeline.Kind.Channel).
	Channel string
	Bytes   float64
	Msgs    int
}

// Stats is the run-level roll-up of an event stream.
type Stats struct {
	// Total is the run makespan the ratios are computed against.
	Total float64
	// Iters is the number of training iterations observed.
	Iters   int
	Devices []DeviceStats
	// Links holds per-link traffic, sorted by (from, to, channel).
	Links []LinkStats
	// Instrs and Msgs are the run-wide counters.
	Instrs, Msgs int
}

// utilization returns the fraction of the makespan the device spent busy.
func (s *Stats) utilization(dev int) float64 {
	if s.Total <= 0 {
		return 0
	}
	return s.Devices[dev].Busy / s.Total
}

// BubbleRatio is the measured counterpart of sim.Result.BubbleRatio: the
// fraction of the makespan the device spent outside compute.
func (s *Stats) BubbleRatio(dev int) float64 {
	return 1 - s.utilization(dev)
}

// Compute derives per-device and per-link statistics from an event stream.
// total is the run makespan; pass 0 to use the latest event end time.
func Compute(events []Event, total float64) *Stats {
	st := &Stats{Total: total}
	maxDev := -1
	for _, e := range events {
		if e.Device > maxDev {
			maxDev = e.Device
		}
		if e.End > st.Total && total <= 0 {
			st.Total = e.End
		}
		if e.Iter+1 > st.Iters {
			st.Iters = e.Iter + 1
		}
	}
	st.Devices = make([]DeviceStats, maxDev+1)
	for d := range st.Devices {
		st.Devices[d].Device = d
	}
	type linkKey struct {
		from, to int
		ch       string
	}
	links := make(map[linkKey]*LinkStats)
	for _, e := range events {
		ds := &st.Devices[e.Device]
		ds.Instrs++
		st.Instrs++
		if e.Mem > ds.PeakMem {
			ds.PeakMem = e.Mem
			ds.PeakKind = e.Kind
		}
		switch e.Kind {
		case pipeline.SendAct, pipeline.SendGrad:
			ds.Sends++
			st.Msgs++
			lk := linkKey{e.Device, e.Peer, e.Kind.Channel()}
			l := links[lk]
			if l == nil {
				l = &LinkStats{From: e.Device, To: e.Peer, Channel: lk.ch}
				links[lk] = l
			}
			l.Bytes += e.Bytes
			l.Msgs++
		case pipeline.RecvAct, pipeline.RecvGrad:
			ds.Recvs++
			ds.RecvStall += e.Wait
		default:
			ds.Busy += e.Dur()
		}
	}
	for _, l := range links {
		st.Links = append(st.Links, *l)
	}
	sort.Slice(st.Links, func(i, j int) bool {
		a, b := st.Links[i], st.Links[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Channel < b.Channel
	})
	return st
}

// Table renders the stats as an ASCII table: one row per device plus a link
// and counter summary.
func (s *Stats) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "measured run: %d iterations, makespan %.4g s, %d instructions, %d messages\n",
		s.Iters, s.Total, s.Instrs, s.Msgs)
	fmt.Fprintf(&b, "%-6s %7s %6s %10s %11s %6s %8s %10s %s\n",
		"device", "instrs", "msgs", "busy(s)", "recvstall(s)", "util%", "bubble%", "peak-mem", "peak-at")
	for d := range s.Devices {
		ds := &s.Devices[d]
		fmt.Fprintf(&b, "dev%-3d %7d %6d %10.4g %11.4g %6.1f %8.1f %10s %s\n",
			d, ds.Instrs, ds.Sends+ds.Recvs, ds.Busy, ds.RecvStall,
			100*s.utilization(d), 100*s.BubbleRatio(d), humanBytes(ds.PeakMem), ds.PeakKind)
	}
	if len(s.Links) > 0 {
		b.WriteString("links:\n")
		for _, l := range s.Links {
			fmt.Fprintf(&b, "  %d->%d[%s] %10s in %d msgs\n", l.From, l.To, l.Channel, humanBytes(l.Bytes), l.Msgs)
		}
	}
	return b.String()
}

// humanBytes renders a byte count with a binary unit.
func humanBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2f KB", v/(1<<10))
	}
	return fmt.Sprintf("%.0f B", v)
}
