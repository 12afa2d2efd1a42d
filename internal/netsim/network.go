package netsim

import (
	"occamy/internal/linkfault"
	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
	"occamy/internal/transport"
)

// Network bundles an engine, hosts, and switches, and owns the flow
// table: the flow with ID i is flows[i-1], one value in the run's slab of
// flow chunks. A chunk never moves, so what points into a flow (its handle,
// bound callbacks, start event) stays valid; the slab dies with the run.
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

	flows []*FlowHandle
	spare []FlowHandle // the newest slab chunk's unused flows
}

// FlowHandle is one flow started via StartFlow, a value in the flow slab
// with both endpoints, which read Spec in place, and the DCTCP controller
// the sender drives by default.
type FlowHandle struct {
	Spec     transport.FlowSpec
	Sender   transport.Sender
	Receiver transport.Receiver // its Started is the flow's start time
	dctcp    transport.DCTCP
}

// flowStart is a flow's start event.
type flowStart FlowHandle

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

// StartFlow creates a sender/receiver pair, appends it to the flow table
// under the next flow ID, and starts the transfer at virtual time `at`.
// A flow stays in the table after it completes: late retransmissions
// still need the receiver to re-ACK so the sender can finish cleanly.
func (n *Network) StartFlow(at sim.Time, src, dst pkt.NodeID, size int64, opts FlowOptions) *FlowHandle {
	if src == dst {
		panic("netsim: flow src == dst")
	}
	h := n.newFlow()
	topts := opts.Transport.WithDefaults()
	h.Spec = transport.FlowSpec{
		ID:       uint64(len(n.flows)) + 1,
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
	n.flows = append(n.flows, h)
	n.Eng.AtEvent(at, (*flowStart)(h), nil)
	return h
}

// newFlow takes the next flow of the slab. A new chunk holds 4 to 64 flows,
// as many as the run has; newFlow stays out of line to own its allocation.
//
//go:noinline
func (n *Network) newFlow() *FlowHandle {
	if len(n.spare) == 0 {
		n.spare = make([]FlowHandle, min(max(len(n.flows), 4), 64))
	}
	h := &n.spare[0]
	n.spare = n.spare[1:]
	return h
}
