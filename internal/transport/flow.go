package transport

import (
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// Net is the interface a flow endpoint needs from its host: virtual
// time, timers, packet allocation, and packet injection into the
// network. It is implemented by netsim.Host.
type Net interface {
	Now() sim.Time
	AfterTimer(d sim.Duration, fn func()) sim.Timer
	// NewPacket returns a packet that is zeroed but for its ID, typically
	// from the network's freelist so the per-packet allocation disappears
	// from the hot path. The ID is nonzero and unique within the run: the
	// endpoints shed a link-level duplicate by seeing the same ID twice in
	// a row, and the switch checks its two queue structures against it.
	NewPacket() *pkt.Packet
	Send(p *pkt.Packet)
}

// FlowSpec describes one byte-stream flow.
type FlowSpec struct {
	ID       uint64
	Src, Dst pkt.NodeID
	Size     int64 // payload bytes to transfer
	Priority int   // traffic class at switches
	ECN      bool  // set ECT on data packets
}

// Options tunes the sender.
type Options struct {
	// MSS is the payload per segment; 0 defaults to pkt.MSS (1460).
	MSS int
	// InitCwndSegs is the initial window in segments; 0 defaults to 10.
	InitCwndSegs int
	// MinRTO floors the retransmission timeout; 0 defaults to 5ms (the
	// value the paper's simulations use).
	MinRTO sim.Duration
	// InitRTO is the timeout before any RTT sample; 0 defaults to 10ms.
	InitRTO sim.Duration
	// MaxRTO caps exponential backoff; 0 defaults to 1s.
	MaxRTO sim.Duration
	// DupThresh fixes the duplicate-ACK fast-retransmit threshold.
	// Zero enables adaptive early retransmit (RFC 5827); stock-Linux
	// mimicking scenarios set 3.
	DupThresh int
}

func (o Options) WithDefaults() Options {
	if o.MSS == 0 {
		o.MSS = pkt.MSS
	}
	if o.InitCwndSegs == 0 {
		o.InitCwndSegs = 10
	}
	if o.MinRTO == 0 {
		o.MinRTO = 5 * sim.Millisecond
	}
	if o.InitRTO == 0 {
		o.InitRTO = 10 * sim.Millisecond
	}
	if o.MaxRTO == 0 {
		o.MaxRTO = sim.Second
	}
	return o
}
