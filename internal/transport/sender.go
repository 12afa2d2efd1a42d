package transport

import (
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// Sender drives one flow: it emits data segments within the congestion
// window, processes cumulative ACKs, performs NewReno-style fast
// retransmit with partial-ACK retransmission, and falls back to an
// exponentially backed-off RTO.
type Sender struct {
	net  Net
	spec *FlowSpec
	opts Options
	cc   CC

	sndUna int64 // lowest unacknowledged byte
	sndNxt int64 // next byte to send

	dupAcks    int
	inRecovery bool
	recover    int64  // fast-recovery exit point
	lastAckID  uint64 // last ACK packet identity, to shed link duplicates

	// RTO state (RFC 6298). Consecutive timeouts double rto directly
	// (capped at MaxRTO); a fresh RTT sample recomputes it from
	// srtt/rttvar, which is what ends a backoff run.
	srtt, rttvar sim.Duration
	haveRTT      bool
	rto          sim.Duration
	timer        sim.Timer
	timeoutFn    func() // onTimeout, bound once so re-arming never allocates

	done     bool
	timeouts int64
	retx     int64
}

// NewSender builds a sender; call Start to begin transmitting.
func NewSender(net Net, spec FlowSpec, cc CC, opts Options) *Sender {
	return new(Sender).Init(net, &spec, cc, opts)
}

// Init makes s, in place, the sender NewSender returns, reading the flow's
// unchanging spec through the pointer. s must not move afterwards: its
// retransmission timer is bound to it, once, by its first Init.
func (s *Sender) Init(net Net, spec *FlowSpec, cc CC, opts Options) *Sender {
	*s = Sender{net: net, spec: spec, cc: cc, opts: opts.WithDefaults(), timeoutFn: s.timeoutFn}
	if s.timeoutFn == nil {
		s.timeoutFn = s.onTimeout
	}
	return s
}

// Done reports whether the flow has fully completed.
func (s *Sender) Done() bool { return s.done }

// Timeouts returns the number of RTO events (RTO-heavy tails are the
// paper's p99 story).
func (s *Sender) Timeouts() int64 { return s.timeouts }

// Retransmits returns the number of retransmitted segments.
func (s *Sender) Retransmits() int64 { return s.retx }

// Start begins the transfer at the current virtual time.
func (s *Sender) Start() {
	s.rto = s.opts.InitRTO
	s.trySend()
}

// segment builds the data packet starting at seq.
func (s *Sender) segment(seq int64) *pkt.Packet {
	payload := int64(s.opts.MSS)
	if rem := s.spec.Size - seq; rem < payload {
		payload = rem
	}
	p := s.net.NewPacket()
	p.FlowID = s.spec.ID
	p.Src = s.spec.Src
	p.Dst = s.spec.Dst
	p.Size = int(payload) + pkt.HeaderBytes
	p.Seq = seq
	p.Payload = int(payload)
	p.Fin = seq+payload >= s.spec.Size
	p.ECNCapable = s.spec.ECN
	p.Priority = s.spec.Priority
	p.SentAt = s.net.Now()
	return p
}

// trySend emits new segments while the window allows.
func (s *Sender) trySend() {
	if s.done {
		return
	}
	for s.sndNxt < s.spec.Size {
		inflight := s.sndNxt - s.sndUna
		if inflight+int64(s.opts.MSS) > int64(s.cc.Cwnd()) && inflight > 0 {
			break
		}
		p := s.segment(s.sndNxt)
		s.sndNxt += int64(p.Payload)
		s.net.Send(p)
	}
	s.armTimer()
}

// retransmit resends one segment from sndUna.
func (s *Sender) retransmit() {
	if s.done {
		return
	}
	s.retx++
	s.net.Send(s.segment(s.sndUna))
	s.armTimer()
}

func (s *Sender) armTimer() {
	if s.done || s.sndUna >= s.spec.Size {
		return
	}
	s.timer.Stop()
	s.timer = s.net.AfterTimer(s.rto, s.timeoutFn)
}

func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	s.timeouts++
	s.cc.OnTimeout(s.net.Now())
	s.dupAcks = 0
	s.inRecovery = false
	// Exponential backoff, capped.
	s.rto *= 2
	if s.rto > s.opts.MaxRTO {
		s.rto = s.opts.MaxRTO
	}
	// Go-back-N: without SACK, everything past sndUna is suspect. Reset
	// sndNxt so subsequent ACKs clock out the whole window again;
	// without this, multiple holes degenerate into one segment per RTO.
	s.sndNxt = s.sndUna
	s.retx++
	s.trySend()
}

// OnPacket consumes an ACK of the flow.
func (s *Sender) OnPacket(p *pkt.Packet) {
	if !p.Ack || s.done {
		return
	}
	// A faulty link can deliver the same ACK twice. Every distinct ACK
	// carries a fresh packet ID, so an ID repeat is the duplicate copy,
	// not new information — counting it as a dup ACK would fake the
	// triple-dupACK loss signal.
	if p.ID != 0 && p.ID == s.lastAckID {
		return
	}
	s.lastAckID = p.ID
	now := s.net.Now()
	switch {
	case p.AckNo > s.sndUna:
		newly := p.AckNo - s.sndUna
		s.sndUna = p.AckNo
		if p.AckNo > s.sndNxt {
			// A pre-timeout ACK released after the Go-back-N reset
			// (sndNxt = sndUna) acknowledges past sndNxt. Those bytes
			// are delivered; resending from the stale sndNxt would push
			// already-acknowledged data and drive inflight negative.
			s.sndNxt = p.AckNo
		}
		s.dupAcks = 0
		s.sampleRTT(now - p.SentAt)
		s.cc.OnAck(newly, p.AckNo, s.sndNxt, p.ECNEcho, now)
		if s.inRecovery {
			if p.AckNo >= s.recover {
				s.inRecovery = false
			} else {
				// Partial ACK: the next segment is lost too.
				s.retransmit()
			}
		}
		if s.sndUna >= s.spec.Size {
			s.done = true
			s.timer.Stop()
			return
		}
		s.trySend() // re-arms the RTO on its way out
	case p.AckNo == s.sndUna && s.sndNxt > s.sndUna:
		// With nothing outstanding there is nothing a fast retransmit
		// could repair; a same-AckNo arrival then is a stale or
		// duplicated ACK, not a loss signal.
		s.dupAcks++
		if s.dupAcks == s.dupThreshold() && !s.inRecovery {
			s.inRecovery = true
			s.recover = s.sndNxt
			s.cc.OnFastRetransmit(now)
			s.retransmit()
		}
	}
}

// dupThreshold implements early retransmit (RFC 5827): with fewer than
// four outstanding segments the classic triple-dupACK can never trigger,
// so lower the threshold to outstanding−1 (minimum 1). A fixed
// Options.DupThresh disables the adaptation (stock-Linux behaviour).
func (s *Sender) dupThreshold() int {
	if s.opts.DupThresh > 0 {
		return s.opts.DupThresh
	}
	outstanding := int((s.sndNxt - s.sndUna + int64(s.opts.MSS) - 1) / int64(s.opts.MSS))
	if outstanding >= 4 {
		return 3
	}
	if outstanding <= 2 {
		return 1
	}
	return outstanding - 1
}

// sampleRTT updates srtt/rttvar/rto per RFC 6298.
func (s *Sender) sampleRTT(rtt sim.Duration) {
	if rtt <= 0 {
		return
	}
	if !s.haveRTT {
		s.haveRTT = true
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		d := s.srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.opts.MinRTO {
		s.rto = s.opts.MinRTO
	}
	if s.rto > s.opts.MaxRTO {
		s.rto = s.opts.MaxRTO
	}
}
