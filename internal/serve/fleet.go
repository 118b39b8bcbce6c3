package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"mario"
	"mario/internal/serve/api"
	"mario/internal/serve/client"
	"mario/internal/telemetry"
	"mario/internal/tuner"
)

// This file is the serve half of the distributed planning fleet. A server
// configured with Options.Fleet plays three roles at once:
//
//   - Coordinator: its own branch-and-bound searches run the probe pass
//     locally and dispatch waves of sorted grid points to the fleet over
//     POST /v1/shard (fleetDispatcher, a tuner.ShardDispatcher over the
//     service client). The merged plan is byte-identical to a single-node
//     run for every fleet shape — the tuner's merge contract — so the plan
//     cache and every downstream consumer are fleet-oblivious.
//   - Worker: it answers /v1/shard batches from other coordinators,
//     memoizing a ShardWorker per workload fingerprint so repeated shards
//     of one search share schedule builds and graph results.
//   - Router: with Self set, blocking plan requests are forwarded to the
//     workload's consistent-hash owner, so a fleet computes each plan once
//     and answers repeats from the owner's cache (peer cache hits).
//     Streaming requests always run locally — proxying an NDJSON stream
//     buys nothing over just computing, since the plan is deterministic.

// hashRing is a consistent-hash ring over the fleet members. Each member
// gets ringVnodes virtual points; a fingerprint is owned by the first
// member clockwise from its hash. The ring is deterministic in the member
// list alone, so every member routes identically without coordination.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

const ringVnodes = 64

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newHashRing builds the ring from the member base URLs (deduplicated).
func newHashRing(members []string) *hashRing {
	seen := map[string]bool{}
	r := &hashRing{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", m, v)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// owner returns the member owning fp, or "" on an empty ring.
func (r *hashRing) owner(fp string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(fp)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// fleetState is everything a fleet member holds beyond a standalone server:
// the peer list and their clients, the routing ring, and the shard-worker
// cache serving /v1/shard.
type fleetState struct {
	self    string
	peers   []string // other members, sorted
	clients map[string]*client.Client
	ring    *hashRing // nil unless Self is set

	mu      sync.Mutex
	workers map[string]*mario.ShardWorker // fingerprint → shard worker (LRU, workerCache entries)
	order   []string                      // LRU order, oldest first
}

// newFleetState builds the fleet side of a server. It is always non-nil:
// even a server with no Fleet configured keeps the worker cache, because a
// coordinator elsewhere may list it as a peer and dispatch shards to it;
// only dispatch and routing require Fleet/Self.
func newFleetState(opts Options) *fleetState {
	fs := &fleetState{
		self:    opts.Self,
		clients: map[string]*client.Client{},
		workers: map[string]*mario.ShardWorker{},
	}
	seen := map[string]bool{opts.Self: true, "": true}
	for _, p := range opts.Fleet {
		if seen[p] {
			continue
		}
		seen[p] = true
		fs.peers = append(fs.peers, p)
		cl := client.New(p)
		cl.Retries = opts.FleetRetries
		cl.Backoff = opts.FleetBackoff
		fs.clients[p] = cl
	}
	sort.Strings(fs.peers)
	if opts.Self != "" && len(fs.peers) > 0 {
		fs.ring = newHashRing(append([]string{opts.Self}, fs.peers...))
	}
	return fs
}

// workerFor returns the memoized shard worker for a resolved workload,
// creating (and LRU-evicting) under the lock. metrics receives the worker
// tuner's simulation counts.
func (fs *fleetState) workerFor(wl *mario.Workload, metrics *telemetry.SearchMetrics) *mario.ShardWorker {
	fp := wl.Fingerprint()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if w, ok := fs.workers[fp]; ok {
		for i, o := range fs.order {
			if o == fp {
				fs.order = append(append(fs.order[:i:i], fs.order[i+1:]...), fp)
				break
			}
		}
		return w
	}
	w := mario.NewShardWorker(wl, metrics)
	fs.workers[fp] = w
	fs.order = append(fs.order, fp)
	for len(fs.order) > workerCache {
		old := fs.order[0]
		fs.order = fs.order[1:]
		delete(fs.workers, old)
	}
	return w
}

// handleShard answers one coordinator-dispatched shard batch. Draining
// members refuse with 503 (the coordinator falls back locally), and a
// protocol-version mismatch is a 400 — never a silent best-effort answer.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := decodeInto(w, r, s.opts.MaxBodyBytes, &req); err != nil {
		errorJSON(w, decodeStatus(err), err)
		return
	}
	if req.Proto != api.ShardProtoVersion {
		errorJSON(w, http.StatusBadRequest,
			fmt.Errorf("serve: shard protocol %d, want %d", req.Proto, api.ShardProtoVersion))
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		errorJSON(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	s.sm.shardRequests.Inc()
	wl, err := req.Workload.Resolve()
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err)
		return
	}
	sw := s.fleet.workerFor(wl, s.search)
	ctx, cancel := context.WithTimeout(r.Context(), req.Workload.Timeout(s.opts.DefaultTimeout, s.opts.MaxTimeout))
	defer cancel()
	outcomes, err := sw.EvalShard(ctx, req.Points, req.Incumbent)
	if err != nil {
		s.sm.shardErrors.Inc()
		errorJSON(w, http.StatusInternalServerError, err)
		return
	}
	s.sm.shardPoints.Add(int64(len(outcomes)))
	writeJSON(w, ShardResponse{Proto: api.ShardProtoVersion, Fingerprint: wl.Fingerprint(), Outcomes: outcomes})
}

// routeToPeer forwards a blocking plan request to the workload's
// consistent-hash owner when that owner is another member, carrying the
// request's ?trace=1 along. It returns the owner's answer — under this
// member's own fingerprint for the request, with Peer stamped — and true when
// routing happened. The answer's plan and trace are slices of the one buffer
// the owner's body was read into, and go into this member's answer as they
// are: the read (api.ParsePlanResponse, through client.PlanRouted) has checked
// the body's JSON grammar end to end. Routing is an optimization, never a
// correctness dependency: a peer failure falls back to local computation, and
// so does a 200 that does not answer this request — one for another
// fingerprint (the owner resolves workloads differently: another build), one
// without a plan, or one that is not exactly one JSON value (truncated, or with
// anything but white space behind it). req goes out as it came in: the owner
// resolves whatever spelling arrives to the workload fp names.
func (s *Server) routeToPeer(r *http.Request, req PlanRequest, fp string) (*PlanResponse, bool) {
	fs := s.fleet
	if fs == nil || fs.ring == nil || r.Header.Get(api.RoutedHeader) != "" {
		return nil, false
	}
	owner := fs.ring.owner(fp)
	if owner == "" || owner == fs.self {
		return nil, false
	}
	cl, ok := fs.clients[owner]
	if !ok {
		return nil, false
	}
	resp, err := cl.PlanRouted(r.Context(), req, wantTrace(r))
	if err != nil || resp.Fingerprint != fp || len(resp.Plan) == 0 || string(resp.Plan) == "null" {
		s.sm.peerRoutedErr.Inc()
		return nil, false // compute locally instead
	}
	s.sm.peerRoutedOK.Inc()
	resp.Fingerprint, resp.Peer = fp, owner
	return resp, true
}

// fleetDispatcher adapts the fleet's /v1/shard protocol to the tuner's
// ShardDispatcher interface for one coordinator search. Shard s of a wave
// goes to peer s mod len(peers); the workload request travels with every
// batch so workers resolve (and memoize) the right grid.
type fleetDispatcher struct {
	s        *Server
	fs       *fleetState
	workload PlanRequest
	fp       string // the workload's fingerprint, which every response must echo
}

// One shard per peer and the tuner's default chunk: nothing has asked for
// another geometry (the tuner's determinism tests vary both on their own
// dispatchers).
func (d *fleetDispatcher) Shards() int    { return len(d.fs.peers) }
func (d *fleetDispatcher) ChunkSize() int { return tuner.DefaultShardChunk }

func (d *fleetDispatcher) Dispatch(ctx context.Context, shard int, points []tuner.ShardPoint, incumbent float64, hasIncumbent bool) ([]tuner.ShardOutcome, error) {
	peer := d.fs.peers[shard%len(d.fs.peers)]
	req := api.ShardRequest{Proto: api.ShardProtoVersion, Workload: d.workload, Points: points}
	if hasIncumbent {
		inc := incumbent
		req.Incumbent = &inc
	}
	resp, err := d.fs.clients[peer].Shard(ctx, req)
	// A worker that answers in another protocol version, or for a workload it
	// fingerprints differently (it enumerated another grid, so its indices
	// name other points), has not answered this batch: a dispatch error, which
	// the tuner recovers from by evaluating the batch itself.
	if err == nil && resp.Proto != api.ShardProtoVersion {
		err = fmt.Errorf("serve: %s answered in shard protocol %d, want %d", peer, resp.Proto, api.ShardProtoVersion)
	}
	if err == nil && resp.Fingerprint != d.fp {
		err = fmt.Errorf("serve: %s answered for workload %.12s, want %.12s", peer, resp.Fingerprint, d.fp)
	}
	if err != nil {
		d.s.sm.shardDispatchErr.Inc()
		return nil, err
	}
	d.s.sm.shardDispatchOK.Inc()
	return resp.Outcomes, nil
}

// sharderFor returns the dispatcher for one coordinator search, or nil
// when the server has no fleet to dispatch to.
func (s *Server) sharderFor(req PlanRequest, wl *mario.Workload) tuner.ShardDispatcher {
	if s.fleet == nil || len(s.fleet.peers) == 0 {
		return nil
	}
	return &fleetDispatcher{s: s, fs: s.fleet, workload: req, fp: wl.Fingerprint()}
}
