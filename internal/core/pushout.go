package core

import (
	"occamy/internal/bm"
	"occamy/internal/hw"
)

// Pushout is the historically optimal preemptive baseline (§2.2): a
// packet is admitted whenever any buffer remains, and when the buffer is
// full, packets are expelled from the longest queue to make room.
//
// Unlike Occamy, Pushout couples expulsion to the enqueue path (the
// arriving packet waits for the eviction) and needs a real-time Maximum
// Finder — the two implementation burdens Occamy removes. The simulator
// grants Pushout both for free, making it the idealized upper bound the
// paper compares against.
type Pushout struct {
	finder *hw.MaxFinder
	vals   []int // the finder's input row: every queue's length
}

// NewPushout returns the Pushout policy.
func NewPushout() *Pushout { return &Pushout{} }

// Name implements bm.Policy.
func (*Pushout) Name() string { return "Pushout" }

// Admit implements bm.Policy: accept whenever the packet fits. Room is
// made beforehand via MakeRoom, so this is effectively always true.
func (*Pushout) Admit(st bm.State, q, size int) bool {
	return bm.FreeBuffer(st) >= size
}

// Threshold implements bm.Policy: Pushout imposes no per-queue limit.
func (p *Pushout) Threshold(st bm.State, q int) int { return p.ClassThreshold(st, st.QueuePriority(q)) }

// ClassThreshold implements bm.ClassPolicy.
func (*Pushout) ClassThreshold(st bm.State, class int) int { return bm.Unlimited(st) }

// MakeRoom expels head packets from the longest queue until `size` bytes
// fit or nothing remains to expel. The switch calls it when an arrival
// finds the buffer full. It reports whether enough room was freed.
func (p *Pushout) MakeRoom(tm TM, st bm.State, size int) bool {
	if bm.FreeBuffer(st) >= size {
		return true
	}
	bl := tm.Backlogged()
	if bl.Size() != len(p.vals) {
		p.resize(bl.Size())
	}
	// Only an eviction changes a length from here on, and only its
	// victim's: fill the row once and keep that one entry current.
	clear(p.vals)
	for q := bl.Next(0); q >= 0; q = bl.Next(q + 1) {
		p.vals[q] = tm.QueueLen(q)
	}
	for bm.FreeBuffer(st) < size {
		longest := p.finder.Find(p.vals)
		if p.vals[longest] == 0 {
			return false // nothing buffered anywhere
		}
		if _, _, ok := tm.HeadDrop(longest); !ok {
			return false
		}
		p.vals[longest] = tm.QueueLen(longest)
	}
	return true
}

// resize builds the comparator tree and its input row for n queues, out
// of line so that MakeRoom itself has no allocation site.
//
//go:noinline
func (p *Pushout) resize(n int) {
	p.finder, p.vals = hw.NewMaxFinder(n, 32), make([]int, n)
}

// Preemptor is implemented by policies that can evict buffered packets
// at admission time. The switch consults it when Admit fails for lack of
// physical space.
type Preemptor interface {
	MakeRoom(tm TM, st bm.State, size int) bool
}

var _ Preemptor = (*Pushout)(nil)
var _ bm.ClassPolicy = (*Pushout)(nil)
var _ bm.ClassPolicy = (*Occamy)(nil)
