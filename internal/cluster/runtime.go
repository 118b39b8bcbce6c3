package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mario/internal/obs"
	"mario/internal/pipeline"
)

// ErrDeadlock is returned when the run makes no progress within the
// watchdog interval while every unfinished device waits: some device is
// blocked forever on a link or on the all-reduce barrier. The error text
// names, per blocked device, the pending instruction and what it waits on.
var ErrDeadlock = errors.New("cluster: deadlock (every device blocked)")

// ErrMismatch is returned when a receive pops a message destined for a
// different instruction, i.e. send/recv orders diverge on a link.
var ErrMismatch = errors.New("cluster: send/recv order mismatch")

// errAborted marks secondary failures of devices torn down after another
// device hit the primary error; Execute reports the primary error instead.
var errAborted = errors.New("cluster: aborted")

// defaultWatchdog is the no-progress limit when the executor sets none.
const defaultWatchdog = 5 * time.Second

// message is one transfer on a link: the key of the receive it is for, and
// the payload (an arrival time on the emulator, a tensor on the trainer).
type message[P any] struct {
	key     pipeline.Key
	payload P
}

// execution is the state the device goroutines of one Execute share.
type execution[P any] struct {
	s   *pipeline.Schedule
	res *pipeline.Resolved
	// links holds one eager FIFO per (sender, receiver, channel), indexed by
	// pipeline.Resolved.Link. pending counts each link's messages sent and
	// not yet received — a send counts before it pushes, a receive after it
	// pops — so the watchdog also sees a message handed straight to a parked
	// receiver, which never enters the buffer.
	links     []chan message[P]
	pending   []atomic.Int64
	devs      []Device[P]
	abort     chan struct{}
	abortOnce sync.Once
	// progress counts executed instructions; the watchdog reads it.
	progress atomic.Uint64

	// The all-reduce barrier: arrivals of the current round, and the channel
	// its last arrival closes.
	mu      sync.Mutex
	arrived int
	release chan struct{}
}

// Device is one device goroutine's handle on the runtime: its links, the
// barrier, and the status the watchdog reads. Only its own goroutine uses it.
type Device[P any] struct {
	// ID is the device index.
	ID int
	// Iter is the iteration the device is executing.
	Iter int

	rt     *execution[P]
	status devStatus
}

// devStatus publishes whether a device is waiting, and on which instruction,
// so the watchdog can tell a slow run from a stuck one and name the stuck
// instruction. Devices write it only around potentially-blocking waits.
type devStatus struct {
	mu       sync.Mutex
	blocked  bool
	finished bool
	in       pipeline.Instr
	iter     int
	release  chan struct{} // the barrier round waited on; nil on a link
}

func (st *devStatus) block(in pipeline.Instr, iter int, release chan struct{}) {
	st.mu.Lock()
	st.blocked, st.in, st.iter, st.release = true, in, iter, release
	st.mu.Unlock()
}

func (st *devStatus) unblock() {
	st.mu.Lock()
	st.blocked = false
	st.mu.Unlock()
}

func (st *devStatus) finish() {
	st.mu.Lock()
	st.blocked, st.finished = false, true
	st.mu.Unlock()
}

// Execute runs iters passes of every device's instruction list, one goroutine
// per device, calling exec for each instruction on the device's own
// goroutine. The first device error tears the others down, and Execute
// returns that error rather than a teardown's. A run in which, for a whole
// watchdog interval (0 means 5 s), no instruction completes and every device
// that has not finished waits on a link or the barrier is a deadlock:
// Execute tears it down and returns ErrDeadlock naming each waiting device's
// instruction and link. resets counts the watchdog intervals that ended
// without a deadlock.
//
// Execute is where both executors' events are recorded. With collect set,
// each instruction gets one obs.Event whose identity (the instruction,
// device, iteration, and peer: -1 for non-comm kinds) is filled before exec
// runs; exec receives it to fill in what it measures, and Execute returns the
// stream device-major in execution order. Without collect exec receives nil
// and no event is allocated.
func Execute[P any](s *pipeline.Schedule, iters int, watchdog time.Duration, collect bool,
	exec func(dv *Device[P], in pipeline.Instr, ev *obs.Event) error) (events []obs.Event, resets int, err error) {
	if watchdog <= 0 {
		watchdog = defaultWatchdog
	}
	res := s.Resolved()
	rt := &execution[P]{
		s: s, res: res,
		links:   make([]chan message[P], res.NumLinks()),
		pending: make([]atomic.Int64, res.NumLinks()),
		devs:    make([]Device[P], s.NumDevices()),
		abort:   make(chan struct{}),
		release: make(chan struct{}),
	}
	// Links are eager, as the simulator's are: each holds four times the
	// messages one iteration can put on it, so a send does not wait for its
	// receive.
	for l := range rt.links {
		rt.links[l] = make(chan message[P], 4*s.Micros*s.NumStages())
	}
	var devEvents [][]obs.Event
	if collect {
		devEvents = make([][]obs.Event, len(rt.devs))
	}
	errs := make([]error, len(rt.devs))
	var wg sync.WaitGroup
	for d := range rt.devs {
		dv := &rt.devs[d]
		dv.ID, dv.rt = d, rt
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer dv.status.finish()
			if collect {
				devEvents[d] = make([]obs.Event, 0, len(s.Lists[d])*iters)
			}
			for dv.Iter = 0; dv.Iter < iters; dv.Iter++ {
				for _, in := range s.Lists[d] {
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
						errs[d] = err
						rt.teardown()
						return
					}
					rt.progress.Add(1)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	last := uint64(0)
	for {
		select {
		case <-done:
			if err := firstError(errs); err != nil {
				return nil, resets, err
			}
			return slices.Concat(devEvents...), resets, nil
		case <-timer.C:
			// The scan comes before the count: a device that unblocks a
			// scanned one completes an instruction before it can wait again.
			stuck := rt.stuck()
			if cur := rt.progress.Load(); cur != last || stuck == nil {
				last = cur
				resets++
				timer.Reset(watchdog)
				continue
			}
			rt.teardown()
			<-done
			return nil, resets, fmt.Errorf("%w after %v of no progress: %s", ErrDeadlock, watchdog, strings.Join(stuck, "; "))
		}
	}
}

// firstError is the run's error: the first device error, in device order,
// that is not a teardown; a teardown only when nothing else failed.
func firstError(errs []error) error {
	var first error
	for _, err := range errs {
		if err != nil && (first == nil || (errors.Is(first, errAborted) && !errors.Is(err, errAborted))) {
			first = err
		}
	}
	return first
}

// teardown unblocks every waiting device; each then returns errAborted.
func (rt *execution[P]) teardown() { rt.abortOnce.Do(func() { close(rt.abort) }) }

// stuck describes every waiting device, or returns nil when some device that
// has not finished is not waiting. A device whose wait is already satisfied —
// a receive with a message pending on its link, a send whose link has room, a
// barrier whose round was released — is not waiting: its goroutine just has
// not run since.
func (rt *execution[P]) stuck() []string {
	var out []string
	for d := range rt.devs {
		st := &rt.devs[d].status
		st.mu.Lock()
		blocked, finished, in, iter, release := st.blocked, st.finished, st.in, st.iter, st.release
		st.mu.Unlock()
		switch {
		case finished:
		case !blocked:
			return nil
		case in.Kind.IsComm():
			l := rt.res.Link(in)
			n := rt.pending[l].Load() // a blocked send counts its own message
			dir, from, to, ready := "recv", rt.res.Peer(d, in), d, n > 0
			if in.Kind == pipeline.SendAct || in.Kind == pipeline.SendGrad {
				dir, from, to, ready = "send", d, rt.res.Peer(d, in), n <= int64(cap(rt.links[l]))
			}
			if ready {
				return nil
			}
			out = append(out, fmt.Sprintf("dev%d blocked on %s %s (stage %d, micro %d, iter %d) link %d->%d[%s]",
				d, dir, in, in.Stage, in.Micro, iter, from, to, in.Kind.Channel()))
		default:
			select {
			case <-release:
				return nil
			default:
			}
			out = append(out, fmt.Sprintf("dev%d blocked on %s (iter %d) at the all-reduce barrier", d, in, iter))
		}
	}
	return out
}

// link returns the index of the link a communication instruction travels on.
func (dv *Device[P]) link(in pipeline.Instr) (int, error) {
	if l := dv.rt.res.Link(in); l >= 0 {
		return l, nil
	}
	return -1, fmt.Errorf("cluster: device %d has no link for %s", dv.ID, in)
}

// Send posts payload on the link of the send instruction in, addressed to
// the receive it matches. It blocks only while the link is full.
func (dv *Device[P]) Send(in pipeline.Instr, payload P) error {
	l, err := dv.link(in)
	if err != nil {
		return err
	}
	msg := message[P]{key: dv.rt.s.MatchKey(in), payload: payload}
	dv.rt.pending[l].Add(1)
	dv.status.block(in, dv.Iter, nil)
	select {
	case dv.rt.links[l] <- msg:
		dv.status.unblock()
		return nil
	case <-dv.rt.abort:
		return fmt.Errorf("%w while sending %s from device %d", errAborted, in, dv.ID)
	}
}

// Recv takes the next message off the link of the receive instruction in
// and returns its payload. A message meant for another instruction is
// ErrMismatch.
func (dv *Device[P]) Recv(in pipeline.Instr) (P, error) {
	var zero P
	l, err := dv.link(in)
	if err != nil {
		return zero, err
	}
	dv.status.block(in, dv.Iter, nil)
	select {
	case msg := <-dv.rt.links[l]:
		dv.status.unblock()
		dv.rt.pending[l].Add(-1)
		if msg.key != in.Key() {
			return zero, fmt.Errorf("%w: device %d expected %s, link delivered %v", ErrMismatch, dv.ID, in, msg.key)
		}
		return msg.payload, nil
	case <-dv.rt.abort:
		return zero, fmt.Errorf("%w while receiving %s on device %d", errAborted, in, dv.ID)
	}
}

// Barrier blocks until every device has reached it. The last to arrive runs
// merge before any device is released, so merge sees every device's work
// before the barrier and every device sees merge's after it.
func (dv *Device[P]) Barrier(in pipeline.Instr, merge func()) error {
	rt := dv.rt
	rt.mu.Lock()
	rt.arrived++
	release := rt.release
	if rt.arrived == len(rt.devs) {
		rt.arrived, rt.release = 0, make(chan struct{})
		rt.mu.Unlock()
		merge()
		close(release)
		return nil
	}
	rt.mu.Unlock()
	dv.status.block(in, dv.Iter, release)
	select {
	case <-release:
		dv.status.unblock()
		return nil
	case <-rt.abort:
		return fmt.Errorf("%w at the all-reduce barrier (%s on device %d)", errAborted, in, dv.ID)
	}
}
