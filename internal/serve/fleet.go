package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"sort"

	"mario/internal/serve/api"
	"mario/internal/serve/client"
)

// This file is the routing half of a planning fleet. A server configured with
// Options.Fleet and Options.Self forwards blocking plan requests to the
// workload's consistent-hash owner, so a fleet computes each plan once and
// answers repeats from the owner's cache (peer cache hits). Every member
// searches its own workloads in-process; streaming requests always run
// locally — proxying an NDJSON stream buys nothing over just computing, since
// the plan is deterministic.

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
// the peer list, their clients and the routing ring.
type fleetState struct {
	self    string
	peers   []string // other members, sorted
	clients map[string]*client.Client
	ring    *hashRing // nil unless Self is set
}

// newFleetState builds the fleet side of a server configured with a fleet.
func newFleetState(opts Options) *fleetState {
	fs := &fleetState{
		self:    opts.Self,
		clients: map[string]*client.Client{},
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
func (s *Server) routeToPeer(r *http.Request, req api.PlanRequest, fp string) (*api.PlanResponse, bool) {
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
