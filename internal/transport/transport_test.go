package transport

import (
	"testing"

	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// chanNet is a two-endpoint test network with a fixed one-way delay and
// programmable drop/mark functions.
type chanNet struct {
	eng      *sim.Engine
	delay    sim.Duration
	drop     func(p *pkt.Packet) bool
	mark     func(p *pkt.Packet) bool
	dup      func(p *pkt.Packet) bool // deliver a link-level copy (same ID) too
	handlers map[pkt.NodeID]handler
	sent     int
	nextID   uint64
}

func newChanNet(delay sim.Duration) *chanNet {
	return &chanNet{
		eng:      sim.NewEngine(),
		delay:    delay,
		handlers: make(map[pkt.NodeID]handler),
	}
}

func (n *chanNet) Now() sim.Time                                  { return n.eng.Now() }
func (n *chanNet) After(d sim.Duration, fn func())                { n.eng.After(d, fn) }
func (n *chanNet) AfterTimer(d sim.Duration, fn func()) sim.Timer { return n.eng.AfterTimer(d, fn) }
func (n *chanNet) NewPacket() *pkt.Packet {
	n.nextID++
	return &pkt.Packet{ID: n.nextID}
}

func (n *chanNet) Send(p *pkt.Packet) {
	n.sent++
	if n.drop != nil && n.drop(p) {
		return
	}
	if n.mark != nil && p.ECNCapable && n.mark(p) {
		p.CE = true
	}
	if n.dup != nil && n.dup(p) {
		cp := *p // link duplicate: identical bytes, identical ID
		n.eng.After(n.delay, func() {
			if h := n.handlers[cp.Dst]; h != nil {
				h.OnPacket(&cp)
			}
		})
	}
	n.eng.After(n.delay, func() {
		if h := n.handlers[p.Dst]; h != nil {
			h.OnPacket(p)
		}
	})
}

// handler is what chanNet delivers to: a Sender, a Receiver, or a probe.
type handler interface{ OnPacket(p *pkt.Packet) }

// pair wires a sender and receiver for `size` bytes over net.
func pair(n *chanNet, size int64, cc CC, opts Options) (*Sender, *Receiver) {
	spec := FlowSpec{ID: 1, Src: 0, Dst: 1, Size: size, ECN: true}
	s := NewSender(n, spec, cc, opts)
	r := NewReceiver(n, spec, opts.WithDefaults().MSS)
	n.handlers[0] = s
	n.handlers[1] = r
	return s, r
}

func TestTransferCompletes(t *testing.T) {
	n := newChanNet(50 * sim.Microsecond)
	s, r := pair(n, 100_000, NewDCTCP(pkt.MSS, 10), Options{})
	var fct sim.Duration = -1
	r.OnComplete = func(d sim.Duration) { fct = d }
	s.Start()
	n.eng.Run()
	if !s.Done() || !r.Done() {
		t.Fatalf("not done: sender %v receiver %v", s.Done(), r.Done())
	}
	if r.Received() != 100_000 {
		t.Fatalf("received %d, want 100000", r.Received())
	}
	if fct <= 0 {
		t.Fatal("OnComplete not called")
	}
	if s.Retransmits() != 0 || s.Timeouts() != 0 {
		t.Fatalf("lossless transfer had %d retx, %d timeouts", s.Retransmits(), s.Timeouts())
	}
}

func TestSlowStartGrowth(t *testing.T) {
	d := NewDCTCP(1000, 10)
	before := d.Cwnd()
	d.OnAck(1000, 1000, 20000, false, 0)
	if d.Cwnd() != before+1000 {
		t.Fatalf("slow start: cwnd %d -> %d, want +1000", before, d.Cwnd())
	}
}

func TestDCTCPProportionalDecrease(t *testing.T) {
	d := NewDCTCP(1000, 10)
	d.ssthresh = 0 // force congestion avoidance
	d.alpha = 1
	d.cwnd = 100_000
	d.winEnd = 0
	// A fully marked window: alpha stays ~1, cwnd should halve.
	d.OnAck(50_000, 50_000, 100_000, true, 0)
	if got := d.Cwnd(); got < 45_000 || got > 55_000 {
		t.Fatalf("fully marked window: cwnd = %d, want ~50000", got)
	}
	// Alpha decays toward zero over unmarked windows.
	for i := 0; i < 100; i++ {
		d.OnAck(50_000, d.winEnd+1, d.winEnd+100_000, false, 0)
	}
	if d.Alpha() > 0.01 {
		t.Fatalf("alpha = %v after 100 clean windows, want ~0", d.Alpha())
	}
}

func TestDCTCPPartialMarking(t *testing.T) {
	d := NewDCTCP(1000, 10)
	d.ssthresh = 0
	d.alpha = 0
	d.cwnd = 100_000
	d.winEnd = 100_000 // one full window in flight
	// 25% of the window marked: alpha = g*0.25, cut = alpha/2.
	d.OnAck(25_000, 25_000, 100_000, true, 0)
	d.OnAck(75_000, 100_001, 100_000, false, 0) // crosses winEnd
	wantAlpha := 0.25 / 16
	if got := d.Alpha(); got < wantAlpha*0.9 || got > wantAlpha*1.1 {
		t.Fatalf("alpha = %v, want ~%v", got, wantAlpha)
	}
}

func TestCubicDecreaseAndRegrow(t *testing.T) {
	c := NewCubic(1000, 10)
	c.ssthresh = 0
	c.cwnd = 100_000
	c.OnFastRetransmit(0)
	after := c.Cwnd()
	if after < 69_000 || after > 71_000 {
		t.Fatalf("cwnd after loss = %d, want 70000 (beta=0.7)", after)
	}
	// Regrowth approaches and exceeds the old Wmax after enough time.
	now := sim.Time(0)
	for i := 0; i < 20000 && c.Cwnd() <= 100_000; i++ {
		now += sim.Millisecond
		c.OnAck(1000, int64(i)*1000, int64(i)*1000+100_000, false, now)
	}
	if c.Cwnd() <= 100_000 {
		t.Fatalf("cubic never regrew past Wmax: %d", c.Cwnd())
	}
}

func TestCubicTimeoutCollapses(t *testing.T) {
	c := NewCubic(1000, 10)
	c.cwnd = 50_000
	c.OnTimeout(0)
	if c.Cwnd() != 1000 {
		t.Fatalf("cwnd after timeout = %d, want 1 MSS", c.Cwnd())
	}
}

func TestFastRetransmitRecoversSingleLoss(t *testing.T) {
	n := newChanNet(50 * sim.Microsecond)
	dropped := false
	n.drop = func(p *pkt.Packet) bool {
		// Drop one mid-flow data packet exactly once.
		if !p.Ack && p.Seq == 29200 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	s, r := pair(n, 100_000, NewDCTCP(pkt.MSS, 10), Options{})
	s.Start()
	n.eng.Run()
	if !r.Done() {
		t.Fatal("transfer did not complete")
	}
	if !dropped {
		t.Fatal("test never dropped the target packet")
	}
	if s.Timeouts() != 0 {
		t.Fatalf("needed %d RTOs; fast retransmit should have recovered", s.Timeouts())
	}
	if s.Retransmits() == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

func TestRTORecoversTailLoss(t *testing.T) {
	n := newChanNet(50 * sim.Microsecond)
	dropped := false
	n.drop = func(p *pkt.Packet) bool {
		if !p.Ack && p.Fin && !dropped {
			dropped = true
			return true
		}
		return false
	}
	s, r := pair(n, 30_000, NewDCTCP(pkt.MSS, 30), Options{MinRTO: sim.Millisecond})
	s.Start()
	n.eng.Run()
	if !r.Done() {
		t.Fatal("transfer did not complete")
	}
	if s.Timeouts() == 0 {
		t.Fatal("tail loss must be recovered by RTO")
	}
}

func TestReceiverReassemblesOutOfOrder(t *testing.T) {
	n := newChanNet(0)
	spec := FlowSpec{ID: 7, Src: 0, Dst: 1, Size: 3000}
	r := NewReceiver(n, spec, 1000)
	acks := []int64{}
	n.handlers[0] = handlerFunc(func(p *pkt.Packet) { acks = append(acks, p.AckNo) })
	n.handlers[1] = r

	seg := func(seq int64, size int) *pkt.Packet {
		return &pkt.Packet{FlowID: 7, Src: 0, Dst: 1, Seq: seq, Payload: size, Size: size + pkt.HeaderBytes}
	}
	r.OnPacket(seg(1000, 1000)) // out of order
	r.OnPacket(seg(2000, 1000)) // out of order
	r.OnPacket(seg(0, 1000))    // fills the hole
	n.eng.Run()
	want := []int64{0, 0, 3000}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("acks = %v, want %v", acks, want)
		}
	}
	if !r.Done() {
		t.Fatal("receiver not done after reassembly")
	}
}

func TestDuplicateDataIgnored(t *testing.T) {
	n := newChanNet(0)
	spec := FlowSpec{ID: 7, Src: 0, Dst: 1, Size: 2000}
	r := NewReceiver(n, spec, 1000)
	n.handlers[0] = handlerFunc(func(p *pkt.Packet) {})
	n.handlers[1] = r
	seg := &pkt.Packet{FlowID: 7, Src: 0, Dst: 1, Seq: 0, Payload: 1000, Size: 1040}
	r.OnPacket(seg)
	r.OnPacket(seg) // duplicate
	n.eng.Run()
	if r.Received() != 1000 {
		t.Fatalf("Received = %d after duplicate, want 1000", r.Received())
	}
}

type handlerFunc func(p *pkt.Packet)

func (f handlerFunc) OnPacket(p *pkt.Packet) { f(p) }

func TestECNEchoDrivesDCTCP(t *testing.T) {
	n := newChanNet(50 * sim.Microsecond)
	n.mark = func(p *pkt.Packet) bool { return !p.Ack } // mark everything
	cc := NewDCTCP(pkt.MSS, 10)
	s, r := pair(n, 200_000, cc, Options{})
	s.Start()
	n.eng.Run()
	if !r.Done() {
		t.Fatal("transfer did not complete under full marking")
	}
	// With every packet marked, alpha must stay high.
	if cc.Alpha() < 0.5 {
		t.Fatalf("alpha = %v under continuous marking, want high", cc.Alpha())
	}
}

// Property-style soak: random loss up to 20% still completes, for both
// CC algorithms, across seeds.
func TestRandomLossAlwaysCompletes(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, mk := range []func() CC{
			func() CC { return NewDCTCP(pkt.MSS, 10) },
			func() CC { return NewCubic(pkt.MSS, 10) },
		} {
			r := sim.NewRand(seed)
			n := newChanNet(20 * sim.Microsecond)
			n.drop = func(p *pkt.Packet) bool { return r.Float64() < 0.2 && !p.Fin }
			s, rcv := pair(n, 50_000, mk(), Options{MinRTO: sim.Millisecond})
			s.Start()
			n.eng.RunUntil(20 * sim.Second)
			if !rcv.Done() {
				t.Fatalf("seed %d %s: transfer stuck at %d/50000", seed, s.cc.Name(), rcv.Received())
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.MSS != pkt.MSS || o.InitCwndSegs != 10 || o.MinRTO != 5*sim.Millisecond {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestRenoAIMD(t *testing.T) {
	r := NewReno(1000, 10)
	r.ssthresh = 0 // congestion avoidance
	r.cwnd = 10000
	before := r.Cwnd()
	// One full window of ACKs grows cwnd by ~1 MSS.
	for i := 0; i < 10; i++ {
		r.OnAck(1000, int64(i)*1000, 100000, false, 0)
	}
	if got := r.Cwnd(); got < before+900 || got > before+1100 {
		t.Fatalf("CA growth per RTT = %d, want ~1000", got-before)
	}
	r.OnFastRetransmit(0)
	if got := r.Cwnd(); got < 5000 || got > 6000 {
		t.Fatalf("cwnd after loss = %d, want ~half", got)
	}
	r.OnTimeout(0)
	if r.Cwnd() != 1000 {
		t.Fatalf("cwnd after RTO = %d, want 1 MSS", r.Cwnd())
	}
}

func TestRenoECNOncePerWindow(t *testing.T) {
	r := NewReno(1000, 10)
	r.ssthresh = 0
	r.cwnd = 20000
	r.OnAck(1000, 1000, 40000, true, 0)
	afterFirst := r.Cwnd()
	if afterFirst >= 20000 {
		t.Fatal("ECN echo did not cut cwnd")
	}
	// Further echoes in the same window (cwnd == ssthresh) do not cut.
	r.OnAck(1000, 2000, 40000, true, 0)
	if r.Cwnd() < afterFirst-1 {
		t.Fatalf("second echo cut again: %d -> %d", afterFirst, r.Cwnd())
	}
}

func TestTransferCompletesWithReno(t *testing.T) {
	n := newChanNet(50 * sim.Microsecond)
	s, r := pair(n, 80_000, NewReno(pkt.MSS, 10), Options{})
	s.Start()
	n.eng.Run()
	if !r.Done() {
		t.Fatal("Reno transfer did not complete")
	}
}

// A link that duplicates every ACK must not fake the triple-dupACK loss
// signal: the copies carry the same packet ID and are shed at the sender.
func TestLinkDuplicatedAcksCauseNoSpuriousRetransmit(t *testing.T) {
	n := newChanNet(50 * sim.Microsecond)
	n.dup = func(p *pkt.Packet) bool { return p.Ack }
	s, r := pair(n, 100_000, NewDCTCP(pkt.MSS, 10), Options{DupThresh: 3})
	s.Start()
	n.eng.Run()
	if !r.Done() {
		t.Fatal("transfer did not complete")
	}
	if s.Retransmits() != 0 || s.Timeouts() != 0 {
		t.Fatalf("duplicated ACKs on a lossless link caused %d retx, %d RTOs",
			s.Retransmits(), s.Timeouts())
	}
}

// A link that duplicates every data packet must not make the receiver
// emit duplicate ACKs for the copies (which the sender would count
// toward fast retransmit): the copies are shed at the receiver.
func TestLinkDuplicatedDataCausesNoSpuriousRetransmit(t *testing.T) {
	n := newChanNet(50 * sim.Microsecond)
	n.dup = func(p *pkt.Packet) bool { return !p.Ack }
	s, r := pair(n, 100_000, NewDCTCP(pkt.MSS, 10), Options{DupThresh: 3})
	s.Start()
	n.eng.Run()
	if !r.Done() {
		t.Fatal("transfer did not complete")
	}
	if r.Received() != 100_000 {
		t.Fatalf("received %d, want 100000", r.Received())
	}
	if s.Retransmits() != 0 || s.Timeouts() != 0 {
		t.Fatalf("duplicated data on a lossless link caused %d retx, %d RTOs",
			s.Retransmits(), s.Timeouts())
	}
}

// Duplication and loss together: every surviving packet is duplicated
// and 5% are lost. The flow must still complete, and recovery must be
// driven by real loss signals only.
func TestDuplicationPlusLossCompletes(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := sim.NewRand(seed)
		n := newChanNet(20 * sim.Microsecond)
		n.drop = func(p *pkt.Packet) bool { return r.Float64() < 0.05 }
		n.dup = func(p *pkt.Packet) bool { return true }
		s, rcv := pair(n, 50_000, NewDCTCP(pkt.MSS, 10), Options{MinRTO: sim.Millisecond})
		s.Start()
		n.eng.RunUntil(20 * sim.Second)
		if !rcv.Done() {
			t.Fatalf("seed %d: stuck at %d/50000", seed, rcv.Received())
		}
	}
}

// A hold-back reorder that lets fewer data packets than the fixed dup-ACK
// threshold overtake the held segment must cause no retransmission of any
// kind. Holding seq 116800 of a 120000-byte flow leaves exactly two
// segments (118260 and the FIN at 119720) to overtake: two dup ACKs < 3.
func TestReorderBelowDupThresholdNoRetransmit(t *testing.T) {
	n := newChanNet(20 * sim.Microsecond)
	reordered := false
	n.drop = func(p *pkt.Packet) bool {
		if p.Ack || reordered || p.Seq != 116800 {
			return false
		}
		reordered = true
		hp := p
		// Release well before the 5ms MinRTO so only the overtake path runs.
		n.eng.After(300*sim.Microsecond, func() {
			if h := n.handlers[hp.Dst]; h != nil {
				h.OnPacket(hp)
			}
		})
		return true
	}
	s, r := pair(n, 120_000, NewDCTCP(pkt.MSS, 10), Options{DupThresh: 3})
	s.Start()
	n.eng.Run()
	if !r.Done() {
		t.Fatal("transfer did not complete")
	}
	if !reordered {
		t.Fatal("test never reordered the target packet")
	}
	if s.Retransmits() != 0 || s.Timeouts() != 0 {
		t.Fatalf("reordering below dup-ACK threshold caused %d retx, %d RTOs",
			s.Retransmits(), s.Timeouts())
	}
}

// invariantHandler forwards to the sender and checks window sanity after
// every ACK: sndNxt may never fall behind sndUna, and inflight may never
// go negative (the stale-ACK-after-Go-back-N corruption mode).
type invariantHandler struct {
	t *testing.T
	s *Sender
}

func (h invariantHandler) OnPacket(p *pkt.Packet) {
	h.s.OnPacket(p)
	if h.s.sndNxt < h.s.sndUna {
		h.t.Fatalf("window corrupted: sndNxt %d < sndUna %d after ACK %d",
			h.s.sndNxt, h.s.sndUna, p.AckNo)
	}
}

// ACKs held back past the RTO arrive after the Go-back-N reset with
// AckNo beyond sndNxt. The sender must absorb them without re-sending
// already-acknowledged bytes or corrupting its window state.
func TestStaleAckAfterRTOKeepsGoBackNConsistent(t *testing.T) {
	n := newChanNet(50 * sim.Microsecond)
	heldAcks := 0
	n.drop = func(p *pkt.Packet) bool {
		// Hold every ACK of the first 2ms until well past the 1ms RTO, so
		// the Go-back-N reset happens first and the held cumulative ACKs
		// then arrive with AckNo beyond the rewound sndNxt.
		if p.Ack && n.eng.Now() < 2*sim.Millisecond {
			heldAcks++
			hp := p
			n.eng.After(4*sim.Millisecond, func() {
				if h := n.handlers[hp.Dst]; h != nil {
					h.OnPacket(hp)
				}
			})
			return true
		}
		return false
	}
	s, r := pair(n, 60_000, NewDCTCP(pkt.MSS, 10),
		Options{MinRTO: sim.Millisecond, InitRTO: sim.Millisecond})
	n.handlers[0] = invariantHandler{t, s}
	s.Start()
	n.eng.RunUntil(20 * sim.Second)
	if !r.Done() || !s.Done() {
		t.Fatalf("transfer stuck: receiver %d/60000, sender done %v", r.Received(), s.Done())
	}
	if heldAcks < 5 {
		t.Fatalf("test held only %d ACKs", heldAcks)
	}
	if s.Timeouts() == 0 {
		t.Fatal("scenario was meant to force at least one RTO")
	}
}

// Reordered delivery must not break reassembly or trigger spurious
// timeouts: swap adjacent data packets in flight.
func TestReorderingTolerated(t *testing.T) {
	n := newChanNet(20 * sim.Microsecond)
	var held *pkt.Packet
	n.drop = func(p *pkt.Packet) bool {
		if p.Ack {
			return false
		}
		// Hold every 7th data packet and release it after the next one.
		if held == nil && p.Seq > 0 && (p.Seq/1460)%7 == 0 {
			held = p
			hp := p
			n.eng.After(60*sim.Microsecond, func() {
				if h := n.handlers[hp.Dst]; h != nil {
					h.OnPacket(hp)
				}
				held = nil
			})
			return true // swallowed here, delivered late above
		}
		return false
	}
	s, r := pair(n, 120_000, NewDCTCP(pkt.MSS, 10), Options{})
	s.Start()
	n.eng.Run()
	if !r.Done() {
		t.Fatal("transfer did not complete under reordering")
	}
	if s.Timeouts() != 0 {
		t.Fatalf("%d spurious RTOs under mild reordering", s.Timeouts())
	}
}
