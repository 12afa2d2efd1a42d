package netsim

import (
	"errors"

	"occamy/internal/linkfault"
	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
	"occamy/internal/transport"
)

// Network bundles an engine, hosts, and switches, and owns the flow table.
// Flow i's entry points at its slot in the run's slab, whose chunks never
// move, until every byte is ACKed; the flow then retires, its entry becomes
// a tombstone and the next StartFlow reuses its slot, so a run holds as many
// slots as it had flows running at once. Table and slab die with the run.
type Network struct {
	Eng      *sim.Engine
	Rand     *sim.Rand
	Hosts    []*Host
	Switches []*switchsim.Switch
	// Pool is the engine-wide packet freelist shared by every host.
	Pool *pkt.Pool
	// Faults is the link-fault plan wrapped around the topology's links;
	// nil when the topology config enabled no fault profile.
	Faults *linkfault.Plan

	flows  []*[flowChunk]flowEntry // fixed chunks, so growing copies nothing
	nflows uint64
	free   []*flowSlot // retired slots, reused last-in first-out
	spare  []flowSlot  // the newest slab chunk's unused slots
	slots  int         // slots the slab has made
}

const flowChunk = 64

// flowSlot is one running flow, a value in the flow slab: both endpoints,
// which read Spec in place, and the DCTCP controller the sender drives by
// default.
type flowSlot struct {
	Spec     transport.FlowSpec
	Sender   transport.Sender
	Receiver transport.Receiver // its Started is the flow's start time
	dctcp    transport.DCTCP
}

// flowEntry is a flow's slot while it runs, then its tombstone: what late
// data needs to be answered as the done receiver would, and the RTO count.
type flowEntry struct {
	live       *flowSlot // nil once the flow retired
	size       int64
	lastDataID uint64
	timeouts   int64
}

// flowStart is a flow's start event.
type flowStart flowSlot

func (f *flowStart) OnEvent(any) { f.Sender.Start() }

// FlowOptions parameterizes StartFlow.
type FlowOptions struct {
	Priority int
	ECN      bool
	// NewCC builds the congestion controller; nil defaults to DCTCP.
	NewCC func(mss, initSegs int) transport.CC
	// Transport tunes MSS/RTO; zero values use transport defaults.
	Transport transport.Options
	// OnComplete fires at the receiver when the last byte arrives,
	// with the flow completion time.
	OnComplete func(fct sim.Duration)
}

// FlowState is what the network reports of a flow, running or retired.
type FlowState struct {
	Received int64 // in-order bytes at the receiver
	Done     bool  // every byte arrived and was ACKed: the flow retired
	Timeouts int64 // the sender's RTO events
}

// StartFlow creates a sender/receiver pair in a free slot, appends it to
// the flow table under the next flow ID, starts the transfer at virtual
// time `at`, and returns the ID.
func (n *Network) StartFlow(at sim.Time, src, dst pkt.NodeID, size int64, opts FlowOptions) uint64 {
	if src == dst {
		panic("netsim: flow src == dst")
	}
	h := n.newFlow()
	topts := opts.Transport.WithDefaults()
	id := n.nflows + 1
	h.Spec = transport.FlowSpec{
		ID:       id,
		Src:      src,
		Dst:      dst,
		Size:     size,
		Priority: opts.Priority,
		ECN:      opts.ECN,
	}
	var cc transport.CC = &h.dctcp
	if opts.NewCC != nil {
		cc = opts.NewCC(topts.MSS, topts.InitCwndSegs)
	} else {
		h.dctcp.Init(topts.MSS, topts.InitCwndSegs)
	}
	h.Sender.Init(n.Hosts[src], &h.Spec, cc, topts)
	h.Receiver.Init(n.Hosts[dst], &h.Spec, topts.MSS)
	h.Receiver.Started, h.Receiver.OnComplete = at, opts.OnComplete
	if n.nflows%flowChunk == 0 {
		n.flows = append(n.flows, new([flowChunk]flowEntry))
	}
	n.nflows = id
	*n.entry(id) = flowEntry{live: h}
	n.Eng.AtEvent(at, (*flowStart)(h), nil)
	return id
}

// entry returns flow id's table entry, or nil if n (maybe nil) has none.
func (n *Network) entry(id uint64) *flowEntry {
	if n == nil || id-1 >= n.nflows {
		return nil
	}
	return &n.flows[(id-1)/flowChunk][(id-1)%flowChunk]
}

// Flow reports the flow StartFlow returned id for, from its slot while it
// runs and from its tombstone once it retired.
func (n *Network) Flow(id uint64) FlowState {
	e := n.entry(id)
	if f := e.live; f != nil {
		return FlowState{Received: f.Receiver.Received(), Done: f.Sender.Done(), Timeouts: f.Sender.Timeouts()}
	}
	return FlowState{Received: e.size, Done: true, Timeouts: e.timeouts}
}

// newFlow takes the last retired slot, or else the next of the slab. A new
// chunk holds 4 to 64 slots, as many as the slab has made; newFlow stays
// out of line to own its allocation.
//
//go:noinline
func (n *Network) newFlow() *flowSlot {
	if k := len(n.free) - 1; k >= 0 {
		h := n.free[k]
		n.free = n.free[:k]
		return h
	}
	if len(n.spare) == 0 {
		n.spare = make([]flowSlot, min(max(n.slots, 4), 64))
		n.slots += len(n.spare)
	}
	h := &n.spare[0]
	n.spare = n.spare[1:]
	return h
}

// retire makes e, whose sender just saw its last byte ACKed, a tombstone
// and frees its slot; the receiver, which ACKed that byte, is done.
func (n *Network) retire(e *flowEntry) {
	f := e.live
	if !f.Receiver.Done() {
		panic(errEarlyRetire)
	}
	*e = flowEntry{size: f.Spec.Size, lastDataID: f.Receiver.LastDataID(), timeouts: f.Sender.Timeouts()}
	n.free = append(n.free, f)
}

var errEarlyRetire = errors.New("netsim: a flow's sender finished before its receiver")

// answer replies from host h to packet p of a retired flow as its done
// endpoints would: the sender ignores an ACK, and the receiver sheds a
// link duplicate of its last data packet and ACKs any other data for the
// whole flow.
func (e *flowEntry) answer(h *Host, p *pkt.Packet) {
	if p.Ack || p.ID != 0 && p.ID == e.lastDataID {
		return
	}
	e.lastDataID = p.ID
	transport.SendAck(h, p, e.size)
}
