// Package transport implements the byte-stream flows that drive the
// evaluation: window-based congestion control (DCTCP for ECN-enabled
// experiments, a CUBIC-style loss-based controller for the others), a
// sender with slow start, fast retransmit and RTO, and a receiver with
// cumulative ACKs and per-packet ECN echo.
//
// The stack replaces the Linux kernel / ns-3 stacks of the paper's
// testbeds (see DESIGN.md): the evaluation depends on the canonical
// window laws — ECN-proportional backoff for DCTCP, multiplicative
// decrease plus cubic regrowth for CUBIC — which are implemented here
// directly.
package transport

import (
	"math"

	"occamy/internal/sim"
)

// CC is a pluggable congestion-control algorithm. All quantities are in
// bytes. Implementations are per-flow and single-threaded.
type CC interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Cwnd returns the current congestion window in bytes.
	Cwnd() int
	// OnAck processes a cumulative ACK advancing the window by `newly`
	// bytes. sndNxt is the sender's highest sent sequence (for window
	// boundaries), ecnEcho reports the receiver's CE echo.
	OnAck(newly, ackNo, sndNxt int64, ecnEcho bool, now sim.Time)
	// OnFastRetransmit reacts to a triple-duplicate-ACK loss.
	OnFastRetransmit(now sim.Time)
	// OnTimeout reacts to an RTO firing.
	OnTimeout(now sim.Time)
}

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM'10): the
// sender maintains an EWMA α of the fraction of ECN-marked bytes per
// window and, once per window containing marks, shrinks cwnd by α/2.
type DCTCP struct {
	mss      int
	cwnd     float64
	ssthresh float64
	g        float64 // EWMA gain, canonical 1/16
	alpha    float64

	winEnd    int64 // current observation window ends when ack passes this
	ackedWin  int64
	markedWin int64
}

// NewDCTCP returns a DCTCP controller with the given MSS and initial
// window (in segments).
func NewDCTCP(mss, initCwndSegs int) *DCTCP {
	return new(DCTCP).Init(mss, initCwndSegs)
}

// Init makes d, in place, the controller NewDCTCP returns.
func (d *DCTCP) Init(mss, initCwndSegs int) *DCTCP {
	*d = DCTCP{
		mss:      mss,
		cwnd:     float64(mss * initCwndSegs),
		ssthresh: math.MaxFloat64 / 4,
		g:        1.0 / 16,
		alpha:    1, // conservative start, per the DCTCP paper
	}
	return d
}

// Name implements CC.
func (d *DCTCP) Name() string { return "dctcp" }

// Cwnd implements CC.
func (d *DCTCP) Cwnd() int { return int(d.cwnd) }

// Alpha exposes the marking-fraction EWMA (tests and debugging).
func (d *DCTCP) Alpha() float64 { return d.alpha }

// OnAck implements CC.
func (d *DCTCP) OnAck(newly, ackNo, sndNxt int64, ecnEcho bool, now sim.Time) {
	d.ackedWin += newly
	if ecnEcho {
		d.markedWin += newly
	}
	// Standard window growth.
	if d.cwnd < d.ssthresh {
		d.cwnd += float64(newly) // slow start
	} else {
		d.cwnd += float64(d.mss) * float64(newly) / d.cwnd // CA: +1 MSS/RTT
	}
	// Per-window α update and proportional decrease.
	if ackNo >= d.winEnd {
		if d.ackedWin > 0 {
			f := float64(d.markedWin) / float64(d.ackedWin)
			d.alpha = float64((1-d.g)*d.alpha) + float64(d.g*f)
			if d.markedWin > 0 {
				d.cwnd *= 1 - float64(d.alpha/2)
				d.ssthresh = d.cwnd
			}
		}
		d.ackedWin, d.markedWin = 0, 0
		d.winEnd = sndNxt
	}
	d.clamp()
}

// OnFastRetransmit implements CC: classic halving.
func (d *DCTCP) OnFastRetransmit(now sim.Time) {
	d.ssthresh = d.cwnd / 2
	d.cwnd = d.ssthresh
	d.clamp()
}

// OnTimeout implements CC.
func (d *DCTCP) OnTimeout(now sim.Time) {
	d.ssthresh = d.cwnd / 2
	d.cwnd = float64(d.mss)
	d.clamp()
}

func (d *DCTCP) clamp() {
	if d.cwnd < float64(d.mss) {
		d.cwnd = float64(d.mss)
	}
	if d.ssthresh < float64(d.mss) {
		d.ssthresh = float64(d.mss)
	}
}

// Cubic implements a CUBIC-style loss-based controller: multiplicative
// decrease by β=0.7 on loss and cubic window regrowth
// W(t) = C·(t−K)³ + Wmax around the last loss point.
type Cubic struct {
	mss      int
	cwnd     float64
	ssthresh float64

	wmax       float64
	epochStart sim.Time
	k          float64 // seconds
	haveEpoch  bool
}

// Cubic constants (RFC 8312): C in MSS/sec³, β the decrease factor.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// NewCubic returns a CUBIC controller.
func NewCubic(mss, initCwndSegs int) *Cubic {
	return &Cubic{
		mss:      mss,
		cwnd:     float64(mss * initCwndSegs),
		ssthresh: math.MaxFloat64 / 4,
	}
}

// Name implements CC.
func (c *Cubic) Name() string { return "cubic" }

// Cwnd implements CC.
func (c *Cubic) Cwnd() int { return int(c.cwnd) }

// OnAck implements CC. ECN echoes are ignored: the background flows in
// the paper's CUBIC experiments are loss-driven.
func (c *Cubic) OnAck(newly, ackNo, sndNxt int64, ecnEcho bool, now sim.Time) {
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(newly)
		return
	}
	if !c.haveEpoch {
		c.haveEpoch = true
		c.epochStart = now
		if c.wmax < c.cwnd {
			c.wmax = c.cwnd
		}
		wm := c.wmax / float64(c.mss)
		cw := c.cwnd / float64(c.mss)
		if wm > cw {
			c.k = math.Cbrt((wm - cw) / cubicC)
		} else {
			c.k = 0
		}
	}
	t := (now - c.epochStart).Seconds()
	targetSegs := float64(cubicC*math.Pow(t-c.k, 3)) + c.wmax/float64(c.mss)
	target := float64(targetSegs * float64(c.mss))
	if target > c.cwnd {
		// Approach the cubic target without exceeding doubling per RTT.
		grow := (target - c.cwnd) * float64(newly) / c.cwnd
		if grow > float64(newly) {
			grow = float64(newly)
		}
		c.cwnd += grow
	} else {
		// TCP-friendly floor: at least 1 MSS per RTT.
		c.cwnd += float64(c.mss) * float64(newly) / c.cwnd
	}
}

// OnFastRetransmit implements CC.
func (c *Cubic) OnFastRetransmit(now sim.Time) {
	c.wmax = c.cwnd
	c.cwnd *= cubicBeta
	c.ssthresh = c.cwnd
	c.haveEpoch = false
	c.clamp()
}

// OnTimeout implements CC.
func (c *Cubic) OnTimeout(now sim.Time) {
	c.wmax = c.cwnd
	c.ssthresh = c.cwnd * cubicBeta
	c.cwnd = float64(c.mss)
	c.haveEpoch = false
	c.clamp()
}

func (c *Cubic) clamp() {
	if c.cwnd < float64(c.mss) {
		c.cwnd = float64(c.mss)
	}
	if c.ssthresh < float64(c.mss) {
		c.ssthresh = float64(c.mss)
	}
}
