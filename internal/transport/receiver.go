package transport

import (
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// Receiver reassembles a flow and acknowledges every data packet with a
// cumulative ACK carrying a per-packet ECN echo (the DCTCP marking
// channel). Out-of-order segments are buffered by sequence number.
type Receiver struct {
	net  Net
	spec FlowSpec

	rcvNxt int64
	ooo    map[int64]int64 // seq -> segment end, buffered out of order (nil until the first)

	lastDataID uint64 // last data packet identity, to shed link duplicates

	done bool
	// OnComplete fires when the last payload byte arrives (the FCT/QCT
	// measurement point used by the workloads).
	OnComplete func(at sim.Time)
}

// NewReceiver builds the receive side of a flow.
func NewReceiver(net Net, spec FlowSpec) *Receiver {
	return &Receiver{net: net, spec: spec}
}

// Done reports whether every byte has arrived.
func (r *Receiver) Done() bool { return r.done }

// Received returns the in-order byte count.
func (r *Receiver) Received() int64 { return r.rcvNxt }

// OnPacket implements Handler: the receiver consumes data segments.
func (r *Receiver) OnPacket(p *pkt.Packet) {
	if p.Ack {
		return
	}
	// A faulty link can deliver the same data packet twice; the copies
	// share the original's packet ID (retransmissions get fresh IDs, so
	// they are never mistaken for link duplicates and always re-ACKed).
	// Processing the copy would emit a duplicate ACK the sender could
	// misread as the fast-retransmit loss signal.
	if p.ID != 0 && p.ID == r.lastDataID {
		return
	}
	r.lastDataID = p.ID
	if p.Seq == r.rcvNxt {
		r.rcvNxt = p.End()
		// Drain any contiguous out-of-order segments.
		for len(r.ooo) > 0 {
			end, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt = end
		}
	} else if p.Seq > r.rcvNxt {
		if r.ooo == nil {
			r.ooo = make(map[int64]int64)
		}
		if end, ok := r.ooo[p.Seq]; !ok || end < p.End() {
			r.ooo[p.Seq] = p.End()
		}
	}
	// ACK every data packet; echo this packet's CE mark.
	ack := r.net.NewPacket()
	ack.FlowID = r.spec.ID
	ack.Src = r.spec.Dst
	ack.Dst = r.spec.Src
	ack.Size = pkt.AckBytes
	ack.Ack = true
	ack.AckNo = r.rcvNxt
	ack.ECNEcho = p.CE
	ack.Priority = p.Priority
	ack.SentAt = p.SentAt // echoed for the sender's RTT sample
	r.net.Send(ack)
	if !r.done && r.rcvNxt >= r.spec.Size {
		r.done = true
		if r.OnComplete != nil {
			r.OnComplete(r.net.Now())
		}
	}
}

var _ Handler = (*Receiver)(nil)
