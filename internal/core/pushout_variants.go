package core

import "occamy/internal/bm"

// POT is Pushout with Threshold (Cidon, Georgiadis, Guerin, Khamisy,
// JSAC'95), a §7 related-work preemptive baseline: an arriving packet
// may push out buffered data only while its own queue is shorter than a
// threshold fraction of the buffer — preventing an already-long queue
// from cannibalizing others.
type POT struct {
	// Fraction of the buffer below which a queue may push out
	// (default 0.5 when zero).
	Fraction float64
	inner    *Pushout
}

// NewPOT returns the POT policy.
func NewPOT(fraction float64) *POT {
	if fraction == 0 {
		fraction = 0.5
	}
	return &POT{Fraction: fraction, inner: NewPushout()}
}

// Name implements bm.Policy.
func (*POT) Name() string { return "POT" }

// Admit implements bm.Policy.
func (p *POT) Admit(st bm.State, q, size int) bool {
	return bm.FreeBuffer(st) >= size
}

// Threshold implements bm.Policy: the pushout-eligibility threshold.
func (p *POT) Threshold(st bm.State, q int) int { return p.ClassThreshold(st, st.QueuePriority(q)) }

// ClassThreshold implements bm.ClassPolicy.
func (p *POT) ClassThreshold(st bm.State, class int) int {
	return int(p.Fraction * float64(st.Capacity()))
}

// MakeRoomFor implements QueuePreemptor: eviction is allowed only while
// the arriving packet's queue is below the POT threshold.
func (p *POT) MakeRoomFor(tm TM, st bm.State, q, size int) bool {
	if tm.QueueLen(q) >= p.Threshold(st, q) {
		return false
	}
	return p.inner.MakeRoom(tm, st, size)
}

// QPO is Quasi-Pushout (Lin & Shung, IEEE Comm. Letters'97), a §7
// related-work baseline: instead of tracking the true longest queue
// (which needs a Maximum Finder), QPO keeps a register holding the
// *quasi-longest* queue, updated by cheap pairwise comparisons as
// packets arrive; evictions drop from the registered queue.
type QPO struct {
	regQueue int
	haveReg  bool
}

// NewQPO returns the QPO policy.
func NewQPO() *QPO { return &QPO{} }

// Name implements bm.Policy.
func (*QPO) Name() string { return "QPO" }

// Admit implements bm.Policy.
func (p *QPO) Admit(st bm.State, q, size int) bool {
	// The cheap pairwise update: compare the arriving packet's queue to
	// the register (this is exactly the strawman of §2.2, which is why
	// QPO's register can go stale — reproduced faithfully).
	if !p.haveReg || st.QueueLen(q) > st.QueueLen(p.regQueue) {
		p.regQueue, p.haveReg = q, true
	}
	return bm.FreeBuffer(st) >= size
}

// Threshold implements bm.Policy.
func (p *QPO) Threshold(st bm.State, q int) int { return p.ClassThreshold(st, st.QueuePriority(q)) }

// ClassThreshold implements bm.ClassPolicy.
func (p *QPO) ClassThreshold(st bm.State, class int) int { return bm.Unlimited(st) }

// MakeRoomFor implements QueuePreemptor: evict from the quasi-longest
// queue until the packet fits or the register queue empties (the
// register then falls back to a linear rescan, as a hardware QPO would
// re-seed from the next comparison).
func (p *QPO) MakeRoomFor(tm TM, st bm.State, q, size int) bool {
	for bm.FreeBuffer(st) < size {
		if !p.haveReg || tm.QueueLen(p.regQueue) == 0 {
			// Re-seed the register with a linear scan.
			best, bestLen := -1, 0
			bl := tm.Backlogged()
			for i := bl.Next(0); i >= 0; i = bl.Next(i + 1) {
				if l := tm.QueueLen(i); l > bestLen {
					best, bestLen = i, l
				}
			}
			if best < 0 {
				return false
			}
			p.regQueue, p.haveReg = best, true
		}
		if _, _, ok := tm.HeadDrop(p.regQueue); !ok {
			p.haveReg = false
		}
	}
	return true
}

// QueuePreemptor is the arrival-queue-aware variant of Preemptor: the
// eviction decision may depend on which queue the packet is joining
// (POT's threshold, QPO's register update).
type QueuePreemptor interface {
	MakeRoomFor(tm TM, st bm.State, q, size int) bool
}

var _ bm.ClassPolicy = (*POT)(nil)
var _ bm.ClassPolicy = (*QPO)(nil)
var _ QueuePreemptor = (*POT)(nil)
var _ QueuePreemptor = (*QPO)(nil)
