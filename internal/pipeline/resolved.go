package pipeline

// Resolved is everything a placement alone determines, resolved once into flat
// tables: the device owning a (part, stage) cell, the partition a micro-batch
// rides at a stage, the peer device, FIFO link and transfer of a communication
// instruction, the stages resident on a device, and the dense slot of a Key in
// the schedule's (kind, part, micro, stage) box. The simulator, the device
// runtime's links, Validate, the list scheduler and the tuner's bounds all
// read this one view; none keeps a copy of its own.
//
// Placement.Device, Schedule.PeerDevice and Schedule.MatchKey remain the
// definition: Device, PartAt and Peer answer exactly what that arithmetic
// answers, from a table inside the box and by calling it outside. A Resolved is
// immutable once Resolve returns, so a schedule, its clones and the goroutines
// that hold them share one.
type Resolved struct {
	pl              Placement
	micros          int
	devices, stages int
	// rows is the number of partition rows the tables and the slot box carry:
	// NumParts, or one when the partition follows the stage (partOf non-nil) —
	// there a cell's part is a function of its stage, so a second row would
	// only repeat the first.
	rows   int
	partOf []int32 // stage → partition, when the partition follows the stage
	dev    []int32 // [row*stages+stage] → device
	// link is [(kind-SendAct)*rows*stages + row*stages+stage] → link id, -1 for
	// a transfer with no other end (no such stage, or no such device).
	link []int32
	// pair, laid out as link, names the transfer a communication cell takes
	// part in by its send-side cell: row*stages+stage of the SendAct or, offset
	// by rows*stages, of the SendGrad. Both ends of a transfer hold the same
	// value; -1 where link is.
	pair []int32
	ends []linkEnds // link id → its two devices and channel
	// resident[d] lists the distinct stages device d holds, ascending.
	resident [][]int
}

// linkEnds is one FIFO link: sender, receiver, and whether it carries
// gradients (activations and gradients travel on independent channels).
type linkEnds struct {
	from, to int32
	grad     bool
}

// numCommKinds counts the point-to-point kinds, which are contiguous from
// SendAct: the link and pair tables are laid out by kind-SendAct.
const numCommKinds = int(RecvGrad-SendAct) + 1

// Resolve fills the resolved view of pl for schedules of micros micro-batches.
// Whoever constructs a schedule or a shape calls it once (scheme.Build
// through NewSchedule, the JSON decoder, scheme.ShapeOf);
// everything downstream shares the result.
func Resolve(pl Placement, micros int) *Resolved {
	D, S := pl.NumDevices(), pl.NumStages()
	r := &Resolved{pl: pl, micros: micros, devices: D, stages: S, rows: pl.NumParts()}
	ip, follows := pl.(InterleavedPlacement)
	if follows {
		r.rows = 1
	}
	// One int32 array holds the three tables, one int array the resident
	// lists and the counts they are carved by: a search resolves a placement
	// per probed grid point, so the allocations are counted.
	cells := r.rows * S
	tab := make([]int32, (1+2*numCommKinds)*cells)
	r.dev, r.link, r.pair = tab[:cells], tab[cells:(1+numCommKinds)*cells], tab[(1+numCommKinds)*cells:]
	if follows {
		r.partOf = make([]int32, S)
		for st := range r.partOf {
			r.partOf[st] = int32(ip.PartOfStage(st))
		}
	}
	for row := 0; row < r.rows; row++ {
		for st := 0; st < S; st++ {
			r.dev[row*S+st] = int32(pl.Device(r.partOfRow(row, st), st))
		}
	}
	ints := make([]int, D+cells)
	perDev, backing := ints[:D], ints[D:]
	r.eachResident(func(d, _ int) { perDev[d]++ })
	r.resident = make([][]int, D)
	for d, n := range perDev {
		r.resident[d], backing = backing[:0:n], backing[n:]
	}
	r.eachResident(func(d, st int) { r.resident[d] = append(r.resident[d], st) })
	r.resolveLinks()
	return r
}

// partOfRow is the partition id of a table row at a stage.
func (r *Resolved) partOfRow(row, stage int) int {
	if r.partOf != nil {
		return int(r.partOf[stage])
	}
	return row
}

// eachResident calls f(device, stage) for every stage a device holds, stages
// ascending, once per (device, stage) even when the device holds the stage for
// two partitions.
func (r *Resolved) eachResident(f func(d, st int)) {
	S := r.stages
	for st := 0; st < S; st++ {
	rows:
		for row := 0; row < r.rows; row++ {
			d := int(r.dev[row*S+st])
			if d < 0 || d >= r.devices {
				continue
			}
			for lower := 0; lower < row; lower++ {
				if int(r.dev[lower*S+st]) == d {
					continue rows
				}
			}
			f(d, st)
		}
	}
}

// resolveLinks numbers the FIFO links — one per (sender, receiver, channel) —
// and files both ends of every transfer under its link and its send-side cell.
// Transfers are walked from the sending side, device by device over the
// resident cells, so the links out of one device are numbered consecutively
// and a repeated (receiver, channel) — an interleaved device sends two chunks'
// activations to the same neighbour — is found by scanning that short run.
func (r *Resolved) resolveLinks() {
	S, cells := r.stages, r.rows*r.stages
	for i := range r.link {
		r.link[i], r.pair[i] = -1, -1
	}
	r.ends = make([]linkEnds, 0, 2*cells)
	for d, stages := range r.resident {
		first := len(r.ends)
		for _, st := range stages {
			for row := 0; row < r.rows; row++ {
				if int(r.dev[row*S+st]) != d {
					continue
				}
				for _, k := range [...]Kind{SendAct, SendGrad} {
					recv := matchKey(r.pl, Instr{Kind: k, Part: r.partOfRow(row, st), Stage: st})
					rc := r.cell(recv.Part, recv.Stage)
					if rc < 0 || r.dev[rc] < 0 || int(r.dev[rc]) >= r.devices {
						continue
					}
					e := linkEnds{from: int32(d), to: r.dev[rc], grad: k == SendGrad}
					id := first
					for id < len(r.ends) && r.ends[id] != e {
						id++
					}
					if id == len(r.ends) {
						r.ends = append(r.ends, e)
					}
					// The gradient channel's send cells follow the
					// activation channel's in the pair numbering.
					p := row*S + st
					if k == SendGrad {
						p += cells
					}
					send, peer := int(k-SendAct)*cells+row*S+st, int(recv.Kind-SendAct)*cells+rc
					r.link[send], r.link[peer] = int32(id), int32(id)
					r.pair[send], r.pair[peer] = int32(p), int32(p)
				}
			}
		}
	}
}

// cell returns the table index of a (part, stage) coordinate, or -1 outside
// the placement's box. Where the partition follows the stage the part is
// ignored, as the placement's own arithmetic ignores it.
func (r *Resolved) cell(part, stage int) int {
	if stage < 0 || stage >= r.stages {
		return -1
	}
	if r.partOf != nil {
		return stage
	}
	if part < 0 || part >= r.rows {
		return -1
	}
	return part*r.stages + stage
}

// Placement returns the placement the view was resolved from.
func (r *Resolved) Placement() Placement { return r.pl }

// Resolves reports whether r is the view of this placement and micro-batch
// count — what a holder of a cached view asks before reusing it. A nil view
// resolves nothing.
func (r *Resolved) Resolves(pl Placement, micros int) bool {
	return r != nil && r.pl == pl && r.micros == micros
}

// Device is Placement.Device: the device owning the stage for the partition.
func (r *Resolved) Device(part, stage int) int {
	if c := r.cell(part, stage); c >= 0 {
		return int(r.dev[c])
	}
	return r.pl.Device(part, stage)
}

// PartAt returns the partition a micro-batch rides at the given stage when a
// neighbouring instruction of it carries partition id part: the stage's chunk
// where the partition follows the stage, part itself everywhere else.
func (r *Resolved) PartAt(part, stage int) int {
	if r.partOf != nil && stage >= 0 && stage < r.stages {
		return int(r.partOf[stage])
	}
	return partOfStage(r.pl, part, stage)
}

// PartFollowsStage reports whether a micro-batch changes partition along its
// way (interleaved chunks), as opposed to keeping the one it was assigned.
func (r *Resolved) PartFollowsStage() bool { return r.partOf != nil }

// Stages returns the distinct stages whose weights device dev holds, ascending
// (two for a Chimera device, one per chunk for an interleaved one). The slice
// is shared: callers must not modify it.
func (r *Resolved) Stages(dev int) []int { return r.resident[dev] }

// Link returns the id, in [0, NumLinks), of the FIFO link a communication
// instruction travels on — one link per (sender, receiver, channel), the same
// id at both ends — or -1 when the instruction is no communication, lies
// outside the box, or its transfer has no other end.
func (r *Resolved) Link(in Instr) int {
	if !in.Kind.IsComm() {
		return -1
	}
	c := r.cell(in.Part, in.Stage)
	if c < 0 {
		return -1
	}
	return int(r.link[int(in.Kind-SendAct)*r.rows*r.stages+c])
}

// NumLinks returns the number of FIFO links the placement has.
func (r *Resolved) NumLinks() int { return len(r.ends) }

// Peer is Schedule.PeerDevice: for a communication instruction on device d,
// the device on the other end of the transfer; d itself for any other kind.
func (r *Resolved) Peer(d int, in Instr) int {
	if l := r.Link(in); l >= 0 {
		if in.Kind == SendAct || in.Kind == SendGrad {
			return int(r.ends[l].to)
		}
		return int(r.ends[l].from)
	}
	return peerDevice(r.pl, d, in)
}

// box is the number of slots one kind occupies: rows × (micros + 1) × stages.
func (r *Resolved) box() int { return r.rows * (r.micros + 1) * r.stages }

// Slots returns the size of the dense key space Slot indexes.
func (r *Resolved) Slots() int { return int(numKinds) * r.box() }

// Slot returns the dense index of a key in the (kind, part, micro, stage) box
// — micro is offset by one so NoMicro packs at zero — or -1 when a coordinate
// lies outside it. Distinct keys inside the box have distinct slots. Where the
// partition follows the stage, only the stage's own partition is inside.
func (r *Resolved) Slot(k Key) int {
	m := k.Micro + 1
	if k.Kind >= numKinds || m < 0 || m > r.micros || k.Stage < 0 || k.Stage >= r.stages {
		return -1
	}
	row := k.Part
	if r.partOf != nil {
		if k.Part != int(r.partOf[k.Stage]) {
			return -1
		}
		row = 0
	} else if row < 0 || row >= r.rows {
		return -1
	}
	return ((int(k.Kind)*r.rows+row)*(r.micros+1)+m)*r.stages + k.Stage
}

// Transfers returns the number of transfer slots CommPair hands out: one per
// send-side cell of either channel and micro-batch coordinate.
func (r *Resolved) Transfers() int { return 2 * r.box() }

// CommPair returns, from one cell lookup, the link a communication instruction
// travels on (as Link) and its transfer slot in [0, Transfers): the send-side
// cell's pair·(micros+1) + micro+1, the same at both ends of a transfer and
// distinct across transfers. The slot is -1 when the instruction is no
// communication, lies outside the box, or its transfer has no other end.
// Where the partition follows the stage the part is ignored, as MatchKey
// ignores it: an instruction whose part is not its stage's chunk gets the
// chunk's transfer, though Slot places its own key outside the box.
func (r *Resolved) CommPair(in Instr) (link, slot int) {
	m := in.Micro + 1
	c := r.cell(in.Part, in.Stage)
	if !in.Kind.IsComm() || c < 0 {
		return -1, -1
	}
	i := int(in.Kind-SendAct)*r.rows*r.stages + c
	link, slot = int(r.link[i]), -1
	if p := int(r.pair[i]); p >= 0 && m >= 0 && m <= r.micros {
		slot = p*(r.micros+1) + m
	}
	return link, slot
}
