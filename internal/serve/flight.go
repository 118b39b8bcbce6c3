package serve

import (
	"context"
	"sync"

	"mario"
	"mario/internal/serve/api"
	"mario/internal/telemetry"
)

// flight is one in-progress tuner run that any number of identical requests
// share (singleflight). The first request creates it and enqueues it on the
// worker pool; later identical requests join as waiters. When the last
// waiter abandons (deadline, disconnect), the flight's context is cancelled
// so the tuner stops burning a worker on a result nobody wants.
type flight struct {
	req api.PlanRequest // as it was sent: its workers hint
	wl  *mario.Workload // what req resolved to: what is searched, and under whose fingerprint the plan is kept

	// ctx governs the tuner run; cancel is called when the last waiter
	// leaves or the server shuts down hard.
	ctx    context.Context
	cancel context.CancelFunc

	// waiters is guarded by the server mutex (join/leave go through the
	// server, which also owns the flights map).
	waiters int

	mu   sync.Mutex
	subs []chan api.ProgressEvent

	// done is closed exactly once, after data/err/trace are set.
	done chan struct{}
	data []byte
	err  error
	// trace is the run's search trace, set by runFlight before finish and
	// filed with the flight recorder; a waiter that asked for ?trace=1
	// embeds its canonical JSON in the response.
	trace *telemetry.Trace
}

func newFlight(req api.PlanRequest, wl *mario.Workload) *flight {
	ctx, cancel := context.WithCancel(context.Background())
	return &flight{req: req, wl: wl, ctx: ctx, cancel: cancel, waiters: 1, done: make(chan struct{})}
}

// subscribe registers a progress channel. The channel is buffered; broadcast
// drops events for subscribers that fall behind rather than stalling the
// tuner's merge loop.
func (f *flight) subscribe() chan api.ProgressEvent {
	ch := make(chan api.ProgressEvent, 64)
	f.mu.Lock()
	f.subs = append(f.subs, ch)
	f.mu.Unlock()
	return ch
}

// broadcast fans one progress event out to every subscriber, never blocking.
func (f *flight) broadcast(ev api.ProgressEvent) {
	f.mu.Lock()
	for _, ch := range f.subs {
		select {
		case ch <- ev:
		default: // subscriber behind; it will catch up on a later snapshot
		}
	}
	f.mu.Unlock()
}

// finish publishes the outcome and wakes every waiter. It must be called
// exactly once.
func (f *flight) finish(data []byte, err error) {
	f.data, f.err = data, err
	close(f.done)
}
