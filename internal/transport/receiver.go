package transport

import (
	"fmt"
	"math/bits"

	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// Receiver reassembles a flow and acknowledges every data packet with a
// cumulative ACK carrying a per-packet ECN echo (the DCTCP marking
// channel). Segment k starts at byte k·MSS (the sender cuts segments only
// at sndNxt or sndUna, which hold segment ends), so one arriving ahead of
// rcvNxt is held as bit k mod 64·len(held) of a window ring.
type Receiver struct {
	net  Net
	spec *FlowSpec
	mss  int64

	rcvNxt int64
	// held covers segments rcvNxt/mss+1 to rcvNxt/mss+64·len(held)−1, so
	// no two share a bit; it doubles when a segment lands past it.
	held  []uint64
	nheld int // set bits in held

	lastDataID uint64 // last data packet identity, to shed link duplicates

	done bool
	// OnComplete fires when the last payload byte arrives (the FCT/QCT
	// measurement point used by the workloads), with the time since Started.
	Started    sim.Time
	OnComplete func(fct sim.Duration)
}

// NewReceiver builds the receive side of a flow whose sender cuts
// mss-byte segments.
func NewReceiver(net Net, spec FlowSpec, mss int) *Receiver {
	return new(Receiver).Init(net, &spec, mss)
}

// Init makes r, in place, the receiver NewReceiver returns, reading the
// flow's unchanging spec through the pointer; r keeps its hold ring, cleared.
func (r *Receiver) Init(net Net, spec *FlowSpec, mss int) *Receiver {
	clear(r.held)
	*r = Receiver{net: net, spec: spec, mss: int64(mss), held: r.held}
	return r
}

// Done reports whether every byte has arrived.
func (r *Receiver) Done() bool { return r.done }

// Received returns the in-order byte count.
func (r *Receiver) Received() int64 { return r.rcvNxt }

// LastDataID returns the ID of the last data packet, which a duplicate repeats.
func (r *Receiver) LastDataID() uint64 { return r.lastDataID }

// OnPacket consumes a data segment of the flow.
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
		// Drain the held segments that now continue the stream.
		for r.nheld > 0 {
			w, b := r.slot(r.rcvNxt / r.mss)
			if r.held[w]&b == 0 {
				break
			}
			r.held[w] &^= b
			r.nheld--
			r.rcvNxt = min(r.rcvNxt+r.mss, r.spec.Size)
		}
	} else if p.Seq > r.rcvNxt {
		r.hold(p.Seq)
	}
	SendAck(r.net, p, r.rcvNxt) // every data packet is ACKed
	if !r.done && r.rcvNxt >= r.spec.Size {
		r.done = true
		if r.OnComplete != nil {
			r.OnComplete(r.net.Now() - r.Started)
		}
	}
}

// SendAck ACKs data packet p cumulatively up to ackNo, echoing its CE
// mark, priority and send time (the sender's RTT sample).
func SendAck(net Net, p *pkt.Packet, ackNo int64) {
	ack := net.NewPacket()
	ack.FlowID = p.FlowID
	ack.Src, ack.Dst = p.Dst, p.Src
	ack.Size = pkt.AckBytes
	ack.Ack = true
	ack.AckNo = ackNo
	ack.ECNEcho = p.CE
	ack.Priority = p.Priority
	ack.SentAt = p.SentAt
	net.Send(ack)
}

// slot returns the word and bit that hold segment k.
func (r *Receiver) slot(k int64) (int, uint64) {
	i := int(k) & (64*len(r.held) - 1)
	return i >> 6, 1 << (i & 63)
}

// hold marks the segment at byte seq, past rcvNxt, as arrived.
func (r *Receiver) hold(seq int64) {
	k := seq / r.mss
	if k*r.mss != seq {
		panic(fmt.Sprintf("transport: flow %d: a segment at byte %d is off the %d-byte MSS grid", r.spec.ID, seq, r.mss))
	}
	if k-r.rcvNxt/r.mss >= int64(64*len(r.held)) {
		r.grow(k)
	}
	if w, b := r.slot(k); r.held[w]&b == 0 {
		r.held[w] |= b
		r.nheld++
	}
}

// grow doubles the ring until segment k fits, moving each held segment to
// its bit in the larger ring; out of line, so OnPacket does not inherit
// its one allocation.
//
//go:noinline
func (r *Receiver) grow(k int64) {
	base := r.rcvNxt / r.mss
	old, mask := r.held, int64(64*len(r.held)-1)
	r.held = make([]uint64, 1<<bits.Len64(uint64(k-base)>>6))
	for w, word := range old {
		for ; word != 0; word &= word - 1 {
			i := int64(64*w + bits.TrailingZeros64(word))
			nw, nb := r.slot(base + (i-base)&mask)
			r.held[nw] |= nb
		}
	}
}
