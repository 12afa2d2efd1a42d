package netsim

import (
	"occamy/internal/linkfault"
	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
	"occamy/internal/transport"
)

// Network bundles an engine, hosts, and switches, and owns the flow
// table: the flow with ID i is flows[i-1].
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
}

// FlowHandle tracks one flow started via StartFlow.
type FlowHandle struct {
	Spec     transport.FlowSpec
	Sender   *transport.Sender
	Receiver *transport.Receiver
	Started  sim.Time
}

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
	spec := transport.FlowSpec{
		ID:       uint64(len(n.flows)) + 1,
		Src:      src,
		Dst:      dst,
		Size:     size,
		Priority: opts.Priority,
		ECN:      opts.ECN,
	}
	topts := opts.Transport.WithDefaults()
	newCC := opts.NewCC
	if newCC == nil {
		newCC = func(mss, segs int) transport.CC { return transport.NewDCTCP(mss, segs) }
	}
	cc := newCC(topts.MSS, topts.InitCwndSegs)
	h := &FlowHandle{Spec: spec, Started: at}
	h.Sender = transport.NewSender(n.Hosts[src], spec, cc, topts)
	h.Receiver = transport.NewReceiver(n.Hosts[dst], spec)
	if opts.OnComplete != nil {
		h.Receiver.OnComplete = func(now sim.Time) { opts.OnComplete(now - h.Started) }
	}
	n.flows = append(n.flows, h)
	n.Eng.At(at, h.Sender.Start)
	return h
}
