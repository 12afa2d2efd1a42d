// Package pkt defines the packet representation shared by the switch
// model, the transport stack, and the network simulator.
package pkt

import "occamy/internal/sim"

// Standard wire sizes used throughout the simulator.
const (
	// HeaderBytes is the combined Ethernet+IP+TCP header overhead.
	HeaderBytes = 40
	// MTU is the maximum wire size of a data packet.
	MTU = 1500
	// MSS is the maximum payload per data packet.
	MSS = MTU - HeaderBytes
	// AckBytes is the wire size of a pure ACK.
	AckBytes = HeaderBytes
)

// NodeID identifies a host or switch in the simulated network.
type NodeID int

// Packet is one simulated packet. Packets are allocated per transmission
// and never mutated after being handed to the network (except for the CE
// mark applied by switches). A packet waits in at most one FIFO at a time,
// linked through next; the five flags sit together so the link costs no
// size.
type Packet struct {
	ID     uint64 // unique per packet
	FlowID uint64 // flow this packet belongs to
	Src    NodeID // originating host
	Dst    NodeID // destination host
	Size   int    // bytes on the wire (header + payload)

	// Sequence space.
	Seq     int64 // payload byte offset of the first payload byte
	Payload int   // payload bytes carried
	AckNo   int64 // ACK path: receiver has everything below AckNo

	Fin        bool // sender has no bytes beyond this segment
	Ack        bool // this is a pure ACK
	ECNEcho    bool // receiver echoes a CE mark back to the sender
	ECNCapable bool // ECT: switch may mark instead of relying on loss
	CE         bool // congestion experienced (set by a switch)

	// Priority selects the traffic class (queue) at each switch port;
	// 0 is the highest service priority.
	Priority int

	// SentAt is stamped by the sender for RTT sampling.
	SentAt sim.Time

	next *Packet // the packet behind this one in its FIFO
}

// IsData reports whether the packet carries payload.
func (p *Packet) IsData() bool { return !p.Ack }

// End returns the payload byte offset just past this segment.
func (p *Packet) End() int64 { return p.Seq + int64(p.Payload) }
