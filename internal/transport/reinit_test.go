package transport

import (
	"math/rand"
	"reflect"
	"testing"

	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// delivery is one packet a chanNet delivered, and when.
type delivery struct {
	at sim.Time
	p  pkt.Packet
}

// lossyPair wires s and r as flow spec over a network that drops 5 % of
// packets and holds 1 in 10 data packets back by 30µs, seeded, logging
// every delivery.
func lossyPair(seed int64, s *Sender, r *Receiver, spec *FlowSpec) (*chanNet, *[]delivery) {
	n := newChanNet(20 * sim.Microsecond)
	rng := rand.New(rand.NewSource(seed))
	n.drop = func(p *pkt.Packet) bool {
		if rng.Float64() < 0.05 {
			return true
		}
		if !p.Ack && rng.Intn(10) == 0 {
			n.eng.After(30*sim.Microsecond, func() { n.handlers[p.Dst].OnPacket(p) })
			return true
		}
		return false
	}
	var log []delivery
	n.handlers[0] = handlerFunc(func(p *pkt.Packet) { log = append(log, delivery{n.eng.Now(), *p}); s.OnPacket(p) })
	n.handlers[1] = handlerFunc(func(p *pkt.Packet) { log = append(log, delivery{n.eng.Now(), *p}); r.OnPacket(p) })
	opts := Options{MinRTO: sim.Millisecond}
	s.Init(n, spec, NewDCTCP(pkt.MSS, 10), opts)
	r.Init(n, spec, pkt.MSS)
	return n, &log
}

// TestInitAgainLeavesNothing stops a lossy, reordered transfer while its
// sender is in fast recovery after an RTO and its receiver holds segments
// past a hole, then Inits both again in place for a new flow. Each must
// equal an endpoint Init'ed fresh, but for the receiver's hold ring, kept
// and cleared, and the sender's bound timer callback; and the new
// transfer must deliver the same packets at the same times as one from a
// fresh pair.
func TestInitAgainLeavesNothing(t *testing.T) {
	var s Sender
	var r Receiver
	first := FlowSpec{ID: 1, Src: 0, Dst: 1, Size: 2_000_000, ECN: true}
	n, _ := lossyPair(1, &s, &r, &first)
	s.Start()
	for !(s.inRecovery && s.dupAcks > 0 && s.timeouts > 0 && r.nheld > 0) {
		if s.done || n.eng.Now() > sim.Second {
			t.Fatal("the first transfer never held segments during a recovery after an RTO")
		}
		n.eng.RunUntil(n.eng.Now() + sim.Microsecond)
	}
	ring := len(r.held)

	second := FlowSpec{ID: 2, Src: 0, Dst: 1, Size: 300_000, ECN: true}
	again, log := lossyPair(2, &s, &r, &second)
	var fs Sender
	var fr Receiver
	fresh, freshLog := lossyPair(2, &fs, &fr, &second)

	if len(r.held) != ring {
		t.Errorf("the hold ring went from %d to %d words", ring, len(r.held))
	}
	for _, w := range r.held {
		if w != 0 {
			t.Fatal("the kept hold ring was not cleared")
		}
	}
	sa, sb := s, fs
	sa.timeoutFn, sb.timeoutFn, sa.net, sb.net = nil, nil, nil, nil
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("sender Init'ed again:\n%+v\nfresh:\n%+v", sa, sb)
	}
	ra, rb := r, fr
	ra.held, ra.net, rb.net = nil, nil, nil
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("receiver Init'ed again:\n%+v\nfresh:\n%+v", ra, rb)
	}

	s.Start()
	fs.Start()
	again.eng.Run()
	fresh.eng.Run()
	if !s.Done() || !fs.Done() {
		t.Fatalf("second transfer stuck: %v / %v", s.Done(), fs.Done())
	}
	if len(*log) != len(*freshLog) {
		t.Fatalf("%d deliveries from the endpoints Init'ed again, %d from fresh ones", len(*log), len(*freshLog))
	}
	for i, a := range *log {
		if a != (*freshLog)[i] {
			t.Fatalf("delivery %d: %+v, fresh %+v", i, a, (*freshLog)[i])
		}
	}
	if s.Timeouts() != fs.Timeouts() || s.Retransmits() != fs.Retransmits() {
		t.Errorf("RTOs %d/%d and retransmits %d/%d differ from a fresh pair",
			s.Timeouts(), fs.Timeouts(), s.Retransmits(), fs.Retransmits())
	}
}
