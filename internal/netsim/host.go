// Package netsim assembles hosts, links, and switches into the networks
// the paper evaluates: the single-switch testbed scenarios and the
// 128-host leaf–spine fabric with ECMP.
package netsim

import (
	"fmt"
	"math/bits"

	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/transport"
)

// Host is an end node: a NIC that serializes outgoing packets at link
// rate, and the endpoint that hands each arriving packet to its flow's
// sender or receiver, found by index in the network's flow table.
// It implements transport.Net, and sim.Handler for its own NIC events so
// the per-packet serialization/delivery path schedules without closures.
type Host struct {
	ID  pkt.NodeID
	eng *sim.Engine

	rateBps float64
	prop    sim.Duration
	sink    func(*pkt.Packet) // toward the first-hop switch
	pool    *pkt.Pool         // engine-wide packet freelist (may be nil)
	net     *Network          // owner of the flow table (nil for a standalone host)

	// The NIC serves strict-priority transmit queues (priority 0
	// first), mirroring the multi-queue hosts of the paper's testbed.
	txq     [maxHostPrios]pkt.FIFO
	txReady uint8 // bit i: txq[i] holds a packet
	busy    bool
}

// maxHostPrios bounds the per-host priority classes.
const maxHostPrios = 8

// NewHost builds a host; Wire must attach it to a switch before traffic.
func NewHost(eng *sim.Engine, id pkt.NodeID) *Host {
	return &Host{ID: id, eng: eng}
}

// join makes h a host of net: NewPacket draws from the network's packet
// freelist, and Deliver finds flows in its table and recycles consumed
// packets into the freelist.
func (h *Host) join(net *Network) { h.net, h.pool = net, net.Pool }

// Wire attaches the host's NIC to its first-hop link.
func (h *Host) Wire(rateBps float64, prop sim.Duration, sink func(*pkt.Packet)) {
	if rateBps <= 0 {
		panic("netsim: NIC rate must be positive")
	}
	h.rateBps = rateBps
	h.prop = prop
	h.sink = sink
}

// Now implements transport.Net.
func (h *Host) Now() sim.Time { return h.eng.Now() }

// AfterTimer implements transport.Net.
func (h *Host) AfterTimer(d sim.Duration, fn func()) sim.Timer {
	return h.eng.AfterTimer(d, fn)
}

// NewPacket implements transport.Net: a packet from the network
// freelist, zeroed but for a fresh ID from the counter the run's pool
// carries. A host outside any network starts a pool of its own.
func (h *Host) NewPacket() *pkt.Packet {
	if h.pool == nil {
		h.pool = pkt.NewPool()
	}
	p := h.pool.Get()
	p.ID = h.pool.NextID()
	return p
}

// Send implements transport.Net: enqueue on the NIC and serialize.
func (h *Host) Send(p *pkt.Packet) {
	if h.sink == nil {
		panic(fmt.Sprintf("netsim: host %d not wired", h.ID))
	}
	prio := p.Priority
	if prio < 0 {
		prio = 0
	}
	if prio >= maxHostPrios {
		prio = maxHostPrios - 1
	}
	h.txq[prio].Push(p)
	h.txReady |= 1 << prio
	h.trySend()
}

func (h *Host) trySend() {
	if h.busy || h.txReady == 0 {
		return
	}
	q := bits.TrailingZeros8(h.txReady)
	p := h.txq[q].Pop()
	if h.txq[q].Len() == 0 {
		h.txReady &^= 1 << q
	}
	tx := sim.Duration(float64(p.Size*8) / h.rateBps * float64(sim.Second))
	if tx < 1 {
		tx = 1
	}
	h.busy = true
	// Typed events: nil arg = serialization done, packet arg = delivery
	// at the far end. Scheduling order keeps the tx-done event first when
	// prop is zero, as the closure-based path did.
	h.eng.AfterEvent(tx, h, nil)
	h.eng.AfterEvent(tx+h.prop, h, p)
}

// OnEvent implements sim.Handler for the NIC's two per-packet events.
func (h *Host) OnEvent(arg any) {
	if p, ok := arg.(*pkt.Packet); ok {
		h.sink(p)
		return
	}
	h.busy = false
	h.trySend()
}

// Deliver hands an arriving packet to its flow in the network's table:
// an ACK to the flow's sender, data to its receiver. Routing is by
// destination, so an ACK arrives at the sender's host and data at the
// receiver's. The ACK that completes a sender retires its flow, and a
// packet for a retired flow is answered by the flow's tombstone. A packet
// whose flow the network never started is dropped. A delivered packet is
// consumed: the endpoints copy what they need during OnPacket, so the
// packet is recycled afterwards.
func (h *Host) Deliver(p *pkt.Packet) {
	if e := h.net.entry(p.FlowID); e != nil {
		if f := e.live; f == nil {
			e.answer(h, p)
		} else if !p.Ack {
			f.Receiver.OnPacket(p)
		} else if f.Sender.OnPacket(p); f.Sender.Done() {
			h.net.retire(e)
		}
	}
	if h.pool != nil {
		h.pool.Put(p)
	}
}

var _ transport.Net = (*Host)(nil)
