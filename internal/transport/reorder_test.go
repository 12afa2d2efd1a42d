package transport

import (
	"math/rand"
	"testing"

	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// mapReceiver is the reference reassembly: out-of-order segments kept in a
// map from sequence number to segment end, drained by lookup. It is the
// receiver's logic before the window ring, minus the ACK packet.
type mapReceiver struct {
	rcvNxt int64
	ooo    map[int64]int64
	lastID uint64
}

// onData returns the ACK number the receiver sends for a data segment, and
// false when the segment is a link duplicate that gets no ACK.
func (r *mapReceiver) onData(id uint64, seq, end int64) (int64, bool) {
	if id != 0 && id == r.lastID {
		return 0, false
	}
	r.lastID = id
	if seq == r.rcvNxt {
		r.rcvNxt = end
		for len(r.ooo) > 0 {
			e, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt = e
		}
	} else if seq > r.rcvNxt {
		if r.ooo == nil {
			r.ooo = make(map[int64]int64)
		}
		if e, ok := r.ooo[seq]; !ok || e < end {
			r.ooo[seq] = end
		}
	}
	return r.rcvNxt, true
}

// ackNet is a Net that keeps the last ACK a receiver sent and allocates
// nothing: NewPacket hands out one packet over and over.
type ackNet struct {
	ack  pkt.Packet
	acks int
}

func (n *ackNet) Now() sim.Time                             { return 0 }
func (n *ackNet) AfterTimer(sim.Duration, func()) sim.Timer { return sim.Timer{} }
func (n *ackNet) NewPacket() *pkt.Packet                    { n.ack = pkt.Packet{}; return &n.ack }
func (n *ackNet) Send(p *pkt.Packet)                        { n.acks++ }

var _ Net = (*ackNet)(nil)

// arrival is one data packet of a program: segment k, under a packet ID.
type arrival struct {
	k  int64
	id uint64
}

// reorderCase feeds one arrival program to the ring receiver and to the
// map reference, and fails at the first packet after which their rcvNxt
// or ACK differ.
func reorderCase(t *testing.T, mss, size int64, prog []arrival) {
	t.Helper()
	n := &ackNet{}
	r := NewReceiver(n, FlowSpec{ID: 1, Src: 0, Dst: 1, Size: size}, int(mss))
	ref := &mapReceiver{}
	for i, a := range prog {
		seq := a.k * mss
		payload := min(mss, size-seq)
		p := &pkt.Packet{ID: a.id, FlowID: 1, Src: 0, Dst: 1, Seq: seq, Payload: int(payload), Size: int(payload) + pkt.HeaderBytes}
		before := n.acks
		r.OnPacket(p)
		want, acked := ref.onData(a.id, seq, seq+payload)
		if got := n.acks > before; got != acked {
			t.Fatalf("packet %d (segment %d, id %d): ACK sent %v, reference %v", i, a.k, a.id, got, acked)
		}
		if acked && n.ack.AckNo != want {
			t.Fatalf("packet %d (segment %d): ACK %d, reference %d", i, a.k, n.ack.AckNo, want)
		}
		if r.Received() != ref.rcvNxt {
			t.Fatalf("packet %d (segment %d): rcvNxt %d, reference %d", i, a.k, r.Received(), ref.rcvNxt)
		}
	}
	if r.Done() != (ref.rcvNxt >= size) {
		t.Fatalf("Done %v with %d of %d bytes", r.Done(), ref.rcvNxt, size)
	}
}

// reorderProgram draws a seeded arrival program over a flow of nseg
// segments: mostly a sliding window of local reordering, with duplicates
// (link copies under the same ID and retransmissions under fresh ones),
// stale segments below rcvNxt, and leaps far past the window that make the
// ring grow while it is wrapped. It ends by sending every segment in order,
// so the flow completes.
func reorderProgram(rng *rand.Rand, nseg int64) []arrival {
	var prog []arrival
	var id uint64
	send := func(k int64) {
		id++
		prog = append(prog, arrival{k, id})
	}
	next := int64(0) // the reference's next expected segment, roughly
	window := int64(1 + rng.Intn(200))
	for steps := 4 * nseg; steps > 0; steps-- {
		switch x := rng.Intn(100); {
		case x < 3 && len(prog) > 0: // a link duplicate: the same packet again
			prog = append(prog, prog[len(prog)-1])
		case x < 8: // a stale segment, or a retransmission of a held one
			send(max(0, next-int64(rng.Intn(8))))
		case x < 11: // a leap far past the window
			send(min(nseg-1, next+int64(64+rng.Intn(1000))))
		case x < 40: // the hole itself
			send(min(nseg-1, next))
			next++
		default:
			send(min(nseg-1, next+int64(rng.Int63n(window))))
		}
		next = min(next, nseg-1)
	}
	for k := range nseg {
		send(k)
	}
	return prog
}

// TestReceiverReorderMatchesMap runs 200 seeded arrival programs through
// the window ring and the map reference, comparing rcvNxt and the ACK
// after every packet.
func TestReceiverReorderMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mss := []int64{1, 7, 1000, 1460}[rng.Intn(4)]
		nseg := 1 + rng.Int63n(1500)
		size := (nseg-1)*mss + 1 + rng.Int63n(mss) // a short Fin segment, or a full one
		prog := reorderProgram(rng, nseg)
		t.Run("", func(t *testing.T) { reorderCase(t, mss, size, prog) })
	}
}

// TestReceiverRingWraps pins the two corners the seeded programs reach
// only by chance: a drain that crosses the ring's wrap point, and growth
// while the window is wrapped.
func TestReceiverRingWraps(t *testing.T) {
	const nseg = 400
	var prog []arrival
	id := uint64(0)
	send := func(k int64) { id++; prog = append(prog, arrival{k, id}) }
	for k := int64(0); k < 60; k++ { // rcvNxt at segment 60
		send(k)
	}
	for k := int64(61); k < 70; k++ { // held in bits 61..63 and 0..5
		send(k)
	}
	// The hole drains 60..69 across the wrap point of the 64-bit ring.
	send(60)
	// Held in bits 8..63 and 0..2.
	for k := int64(72); k < 131; k++ {
		send(k)
	}
	send(250) // past the window: the ring grows while wrapped
	send(70)  // the first hole
	send(71)  // the second: drains 72..130 from the grown ring
	for k := int64(131); k < nseg; k++ {
		send(k)
	}
	reorderCase(t, 1000, nseg*1000-500, prog)
}

// TestReceiverPanicsOffGrid: a segment that does not start on an MSS
// boundary is a transport bug; the receiver refuses it rather than hold
// it under the wrong segment number.
func TestReceiverPanicsOffGrid(t *testing.T) {
	r := NewReceiver(&ackNet{}, FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 10_000}, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("an out-of-order segment at byte 2500 with a 1000-byte MSS did not panic")
		}
	}()
	r.OnPacket(&pkt.Packet{ID: 1, Seq: 2500, Payload: 1000})
}

// FuzzReceiverReorder: each byte is one arrival, its segment a few below
// to ~250 above the reference's next expected one (0xff repeats the last
// packet as a link duplicate); the ring receiver must track the map
// reference after every packet.
func FuzzReceiverReorder(f *testing.F) {
	f.Add([]byte{1, 2, 0, 0xff, 200, 3, 3, 4}, uint16(1000), uint16(300))
	f.Add([]byte{70, 130, 250, 4, 5, 6, 7, 8, 0xff, 0xff, 4}, uint16(7), uint16(100))
	f.Fuzz(func(t *testing.T, data []byte, mss16, nseg16 uint16) {
		mss, nseg := int64(mss16%2000)+1, int64(nseg16%2000)+1
		size := (nseg-1)*mss + (mss+1)/2 // the Fin segment is short
		var prog []arrival
		ref := &mapReceiver{}
		for i, b := range data {
			a := arrival{id: uint64(i + 1)}
			if b == 0xff && i > 0 {
				a = prog[i-1]
			} else {
				a.k = min(nseg-1, max(0, ref.rcvNxt/mss+int64(b)-4))
			}
			seq := a.k * mss
			ref.onData(a.id, seq, seq+min(mss, size-seq))
			prog = append(prog, a)
		}
		reorderCase(t, mss, size, prog)
	})
}

// BenchmarkReceiverReorder is one data packet into a warm receiver whose
// flow arrives in seeded shuffled blocks of 48 segments: every packet but
// a block's hole is held, and the hole drains the block. It must not
// allocate.
func BenchmarkReceiverReorder(b *testing.B) {
	const block = 48
	perm := rand.New(rand.NewSource(1)).Perm(block)
	n := &ackNet{}
	r := NewReceiver(n, FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 1 << 62}, pkt.MSS)
	p := &pkt.Packet{FlowID: 1, Src: 0, Dst: 1, Payload: pkt.MSS, Size: pkt.MTU}
	var i int64
	feed := func() {
		p.ID = uint64(i + 1)
		p.Seq = (i/block*block + int64(perm[i%block])) * pkt.MSS
		r.OnPacket(p)
		i++
	}
	for range 4 * block { // warm-up: the ring grows once
		feed()
	}
	b.ReportAllocs()
	for b.Loop() {
		feed()
	}
	if r.Received() < i/block*block*pkt.MSS {
		b.Fatalf("received %d bytes after %d packets", r.Received(), i)
	}
}
