package netsim

import (
	"testing"

	"occamy/internal/bm"
	"occamy/internal/linkfault"
	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
)

// sent is one packet a host put on its uplink, and when.
type sent struct {
	at sim.Time
	p  pkt.Packet
}

// tap records every packet host h puts on its uplink from now on, as it
// reaches the far end.
func tap(net *Network, h int) *[]sent {
	var out []sent
	host := net.Hosts[h]
	sink := host.sink
	host.sink = func(p *pkt.Packet) {
		out = append(out, sent{net.Eng.Now(), *p})
		sink(p)
	}
	return &out
}

// finishedFlow runs one 100 KB flow from host 0 to host 1 of a two-host
// star to completion and returns the network and the flow's ID.
func finishedFlow(t *testing.T) (*Network, uint64) {
	t.Helper()
	net := starNet(2, 10e9, 8, 1<<20)
	id := net.StartFlow(0, 0, 1, 100_000, FlowOptions{ECN: true})
	net.Eng.RunUntil(100 * sim.Millisecond)
	if f := net.Flow(id); !f.Done || f.Received != 100_000 {
		t.Fatalf("flow %d: %+v, want done with 100000 bytes", id, f)
	}
	if net.entry(id).live != nil || len(net.free) != 1 {
		t.Fatal("a finished flow did not free its one slot")
	}
	return net, id
}

// TestTombstoneAnswersLikeDoneReceiver delivers late data to a retired
// flow: a link duplicate of the last data packet, a late retransmission,
// its link duplicate, and a second retransmission. A twin network instead
// hands the same packets to the flow's done receiver, still intact in its
// freed slot, which is what answered late data before flows retired. Both
// must put the same ACKs on the wire at the same times, packet IDs
// included, and shed both duplicates.
func TestTombstoneAnswersLikeDoneReceiver(t *testing.T) {
	net, id := finishedFlow(t)
	ref, _ := finishedFlow(t)
	done := &ref.free[0].Receiver
	last := net.entry(id).lastDataID
	if last == 0 || last != done.LastDataID() {
		t.Fatalf("tombstone's last data ID %d, done receiver's %d", last, done.LastDataID())
	}
	late := []pkt.Packet{
		{ID: last, FlowID: id, Src: 0, Dst: 1, Seq: 99_280, Payload: 720, Size: 720 + pkt.HeaderBytes, Fin: true},
		{ID: 1 << 40, FlowID: id, Src: 0, Dst: 1, Payload: pkt.MSS, Size: pkt.MTU, CE: true, ECNCapable: true, SentAt: 7},
		{ID: 1 << 40, FlowID: id, Src: 0, Dst: 1, Payload: pkt.MSS, Size: pkt.MTU, CE: true, ECNCapable: true, SentAt: 7},
		{ID: 1<<40 + 1, FlowID: id, Src: 0, Dst: 1, Seq: pkt.MSS, Payload: pkt.MSS, Size: pkt.MTU, Priority: 2, SentAt: 9},
	}
	got, want := tap(net, 1), tap(ref, 1)
	for i := range late {
		a, b := late[i], late[i]
		net.Hosts[1].Deliver(&a)
		done.OnPacket(&b)
		ref.Pool.Put(&b)
		net.Eng.RunUntil(net.Eng.Now() + 100*sim.Microsecond)
		ref.Eng.RunUntil(ref.Eng.Now() + 100*sim.Microsecond)
	}
	if len(*got) != 2 {
		t.Fatalf("the tombstone sent %d packets for 2 late retransmissions and 2 duplicates", len(*got))
	}
	if len(*want) != 2 {
		t.Fatalf("the done receiver sent %d packets, want 2", len(*want))
	}
	for i := range *want {
		g, w := (*got)[i], (*want)[i]
		if g != w {
			t.Errorf("ACK %d: tombstone sent %+v at %v, done receiver %+v at %v", i, g.p, g.at, w.p, w.at)
		}
		if !g.p.Ack || g.p.AckNo != 100_000 || g.p.FlowID != id || g.p.Src != 1 || g.p.Dst != 0 {
			t.Errorf("ACK %d: %+v, want a whole-flow ACK from host 1 to host 0", i, g.p)
		}
	}
	if f := net.Flow(id); !f.Done || f.Received != 100_000 {
		t.Errorf("late data changed the retired flow's state: %+v", f)
	}
}

// TestTombstoneDropsLateAck delivers a late ACK to a retired flow's
// sender host: a done sender ignores ACKs, so nothing is sent, and the
// packet goes back to the pool.
func TestTombstoneDropsLateAck(t *testing.T) {
	net, id := finishedFlow(t)
	out0, out1 := tap(net, 0), tap(net, 1)
	p := &pkt.Packet{ID: 1 << 40, FlowID: id, Src: 1, Dst: 0, Size: pkt.AckBytes, Ack: true, AckNo: 100_000}
	net.Hosts[0].Deliver(p)
	net.Eng.RunUntil(net.Eng.Now() + sim.Millisecond)
	if len(*out0)+len(*out1) != 0 {
		t.Fatalf("a late ACK to a retired flow sent %v and %v", *out0, *out1)
	}
	if got := net.Pool.Get(); got != p || *got != (pkt.Packet{}) {
		t.Fatal("the late ACK was not zeroed and returned to the pool")
	}
}

// TestReusedSlotRunsLikeFresh runs a lossy, reordered flow to completion,
// then a second flow in the slot it freed. A twin network runs the second
// flow in a fresh slot instead; every packet either host sends, and when,
// must match, and so must the second flow's completion time and RTOs. The
// first flow's RTOs, dup-ACK recovery and held segments must leave nothing
// behind in the slot.
func TestReusedSlotRunsLikeFresh(t *testing.T) {
	profile := &linkfault.Profile{LossProb: 0.03, ReorderProb: 0.05, ReorderHold: 20 * sim.Microsecond}
	build := func() *Network {
		return SingleSwitch(SingleSwitchConfig{
			HostRates: []float64{10e9, 10e9},
			LinkDelay: 5 * sim.Microsecond,
			Switch:    switchsim.Config{ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8)},
			Faults:    linkfault.Config{Seed: 7, HostLeaf: profile},
			Seed:      1,
		})
	}
	var fct [2]sim.Duration
	var taps [2][2]*[]sent
	var second [2]uint64
	for i, net := range []*Network{build(), build()} {
		first := net.StartFlow(0, 0, 1, 400_000, FlowOptions{ECN: true})
		slot := net.entry(first).live
		net.Eng.RunUntil(sim.Second)
		if f := net.Flow(first); !f.Done || f.Timeouts == 0 {
			t.Fatalf("first flow: %+v, want done after at least one RTO", f)
		}
		if i == 1 {
			net.free = nil // the twin takes a fresh slot
		}
		taps[i] = [2]*[]sent{tap(net, 0), tap(net, 1)}
		second[i] = net.StartFlow(net.Eng.Now(), 0, 1, 300_000, FlowOptions{
			ECN:        true,
			OnComplete: func(d sim.Duration) { fct[i] = d },
		})
		if reused := net.entry(second[i]).live == slot; reused != (i == 0) {
			t.Fatalf("network %d: second flow reused the first's slot: %v", i, reused)
		}
		net.Eng.RunUntil(2 * sim.Second)
		if !net.Flow(second[i]).Done {
			t.Fatalf("network %d: second flow did not finish", i)
		}
	}
	for h := range 2 {
		got, want := *taps[0][h], *taps[1][h]
		if len(got) != len(want) {
			t.Fatalf("host %d sent %d packets from a reused slot, %d from a fresh one", h, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("host %d packet %d: reused slot sent %+v at %v, fresh slot %+v at %v",
					h, k, got[k].p, got[k].at, want[k].p, want[k].at)
			}
		}
	}
	if fct[0] != fct[1] || fct[0] == 0 {
		t.Errorf("second flow's FCT: %v from a reused slot, %v from a fresh one", fct[0], fct[1])
	}
}
