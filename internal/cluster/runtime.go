package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"mario/internal/obs"
	"mario/internal/pipeline"
)

// ErrDeadlock is returned when no device can execute its next instruction and
// some device has not finished: a cyclic wait on the links or the all-reduce
// barrier. The error text names, per blocked device, the pending instruction
// and what it waits on.
var ErrDeadlock = errors.New("cluster: deadlock (every device blocked)")

// ErrMismatch is returned when a receive pops a message destined for a
// different instruction, i.e. send/recv orders diverge on a link.
var ErrMismatch = errors.New("cluster: send/recv order mismatch")

// message is one transfer on a link: the key of the receive it is for, and
// the payload (an arrival time on the emulator, a tensor on the trainer).
type message[P any] struct {
	key     pipeline.Key
	payload P
}

// link is one FIFO: the messages from head on are queued.
type link[P any] struct {
	q    []message[P]
	head int
}

func (l *link[P]) len() int { return len(l.q) - l.head }

func (l *link[P]) push(m message[P]) {
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	l.q = append(l.q, m)
}

func (l *link[P]) pop() message[P] {
	m := l.q[l.head]
	l.q[l.head] = message[P]{} // the payload is the receiver's now
	l.head++
	return m
}

// execution is the state one Execute shares between its devices.
type execution[P any] struct {
	s   *pipeline.Schedule
	res *pipeline.Resolved
	// links holds one FIFO per (sender, receiver, channel), indexed by
	// pipeline.Resolved.Link. A link holds at most capacity messages.
	links    []link[P]
	capacity int
}

// Device is an executor's handle on one device during Execute: its identity,
// the iteration it is executing, and its links.
type Device[P any] struct {
	// ID is the device index.
	ID int
	// Iter is the iteration the device is executing.
	Iter int

	rt *execution[P]
	// next is the list position of the instruction the device runs next.
	next int
	// arrived marks a device waiting at the all-reduce barrier; released, one
	// whose barrier round is complete and that may step past it.
	arrived, released bool
}

// Execute runs iters passes of every device's instruction list, calling exec
// for each instruction, device by device in list order. It is one loop that
// steps any device whose next instruction is ready:
//   - a receive once its link has a message queued;
//   - a send while its link holds fewer than 4·Micros·NumStages messages;
//   - with merge non-nil, an AllReduce once every device has reached one;
//     merge then runs once, before any device steps past it;
//   - every other instruction at once (with merge nil, an AllReduce too).
//
// Each link has one sender and is FIFO, and a message carries everything its
// receiver reads of the sender (an arrival time on the emulator, a tensor on
// the trainer), so the order in which devices are stepped changes no result.
// When no device can step and some device has not finished, Execute returns
// ErrDeadlock naming each unfinished device's pending instruction and what it
// waits on. The first exec error ends the run and is returned.
//
// Execute is where both executors' events are recorded. With collect set,
// each instruction gets one obs.Event whose identity (the instruction,
// device, iteration, and peer: -1 for non-comm kinds) is filled before exec
// runs; exec receives it to fill in what it measures, and Execute returns the
// stream device-major in execution order. Without collect exec receives nil
// and no event is allocated.
func Execute[P any](s *pipeline.Schedule, iters int, merge func(), collect bool,
	exec func(dv *Device[P], in pipeline.Instr, ev *obs.Event) error) ([]obs.Event, error) {
	res := s.Resolved()
	rt := &execution[P]{s: s, res: res, links: make([]link[P], res.NumLinks()),
		capacity: 4 * s.Micros * s.NumStages()}
	devs := make([]Device[P], s.NumDevices())
	var devEvents [][]obs.Event
	if collect {
		devEvents = make([][]obs.Event, len(devs))
	}
	for d := range devs {
		devs[d] = Device[P]{ID: d, rt: rt}
		if len(s.Lists[d]) == 0 {
			devs[d].Iter = iters
		}
		if collect {
			devEvents[d] = make([]obs.Event, 0, len(s.Lists[d])*iters)
		}
	}
	arrived := 0 // devices waiting at the barrier
	for {
		stepped, unfinished := false, 0
		for d := range devs {
			dv, list := &devs[d], s.Lists[d]
			for dv.Iter < iters {
				in := list[dv.next]
				if in.Kind == pipeline.AllReduce && merge != nil {
					if !dv.released {
						if !dv.arrived {
							dv.arrived = true
							arrived++
						}
						if arrived < len(devs) {
							break
						}
						merge()
						arrived = 0
						for i := range devs {
							devs[i].arrived, devs[i].released = false, true
						}
					}
					dv.released = false
				} else if !rt.ready(in) {
					break
				}
				var ev *obs.Event
				if collect {
					peer := -1
					if in.Kind.IsComm() {
						peer = s.PeerDevice(d, in)
					}
					devEvents[d] = append(devEvents[d], obs.Event{Instr: in, Device: d, Iter: dv.Iter, Peer: peer})
					ev = &devEvents[d][len(devEvents[d])-1]
				}
				if err := exec(dv, in, ev); err != nil {
					return nil, err
				}
				stepped = true
				if dv.next++; dv.next == len(list) {
					dv.next = 0
					dv.Iter++
				}
			}
			if dv.Iter < iters {
				unfinished++
			}
		}
		switch {
		case unfinished == 0:
			return slices.Concat(devEvents...), nil
		case !stepped:
			return nil, fmt.Errorf("%w: %s", ErrDeadlock, rt.blocked(devs, iters))
		}
	}
}

// ready reports whether a device can execute in, a transfer or a compute
// kind: a receive once its link has a message queued, a send while its link
// has room, anything else at once. A transfer with no link is ready too; its
// Send or Recv reports the error.
func (rt *execution[P]) ready(in pipeline.Instr) bool {
	l := rt.res.Link(in)
	switch {
	case l < 0:
		return true
	case in.Kind == pipeline.SendAct || in.Kind == pipeline.SendGrad:
		return rt.links[l].len() < rt.capacity
	default:
		return rt.links[l].len() > 0
	}
}

// blocked describes what every unfinished device waits on, in device order.
func (rt *execution[P]) blocked(devs []Device[P], iters int) string {
	var out []string
	for d := range devs {
		dv := &devs[d]
		if dv.Iter >= iters {
			continue
		}
		in := rt.s.Lists[d][dv.next]
		if !in.Kind.IsComm() {
			out = append(out, fmt.Sprintf("dev%d blocked on %s (iter %d) at the all-reduce barrier", d, in, dv.Iter))
			continue
		}
		dir, from, to := "recv", rt.res.Peer(d, in), d
		if in.Kind == pipeline.SendAct || in.Kind == pipeline.SendGrad {
			dir, from, to = "send", d, rt.res.Peer(d, in)
		}
		out = append(out, fmt.Sprintf("dev%d blocked on %s %s (stage %d, micro %d, iter %d) link %d->%d[%s]",
			d, dir, in, in.Stage, in.Micro, dv.Iter, from, to, in.Kind.Channel()))
	}
	return strings.Join(out, "; ")
}

// link returns the index of the link a communication instruction travels on.
func (dv *Device[P]) link(in pipeline.Instr) (int, error) {
	if l := dv.rt.res.Link(in); l >= 0 {
		return l, nil
	}
	return -1, fmt.Errorf("cluster: device %d has no link for %s", dv.ID, in)
}

// Send posts payload on the link of the send instruction in, addressed to
// the receive it matches. Execute runs a send only while its link has room.
func (dv *Device[P]) Send(in pipeline.Instr, payload P) error {
	l, err := dv.link(in)
	if err != nil {
		return err
	}
	dv.rt.links[l].push(message[P]{key: dv.rt.s.MatchKey(in), payload: payload})
	return nil
}

// Recv takes the next message off the link of the receive instruction in
// and returns its payload. A message meant for another instruction is
// ErrMismatch. Execute runs a receive only once its link has a message.
func (dv *Device[P]) Recv(in pipeline.Instr) (P, error) {
	var zero P
	l, err := dv.link(in)
	if err != nil {
		return zero, err
	}
	msg := dv.rt.links[l].pop()
	if msg.key != in.Key() {
		return zero, fmt.Errorf("%w: device %d expected %s, link delivered %v", ErrMismatch, dv.ID, in, msg.key)
	}
	return msg.payload, nil
}
