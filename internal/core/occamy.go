// Package core implements the paper's contribution: Occamy, a preemptive
// buffer-management scheme for on-chip shared-memory switches, plus the
// classic preemptive baseline Pushout and the longest-drop ablation
// variant used in Fig 21.
//
// Occamy (§4) combines:
//
//   - a proactive component: plain DT admission with a large α (default
//     8), reserving only a small slice of free buffer, and
//   - a reactive component: an expulsion engine that uses *redundant*
//     memory bandwidth to head-drop packets from every queue whose length
//     exceeds the DT threshold, visiting over-allocated queues in
//     round-robin order.
//
// The expulsion engine is deliberately decoupled from admission
// (overcoming "Difficulty 2" of §2.2): enqueues never wait for an
// expulsion, and a token bucket filled at the switch's aggregate memory
// bandwidth — and drained by every normal dequeue — ensures expulsion
// consumes only bandwidth the output scheduler left idle (the
// fixed-priority arbiter of §4.3).
package core

import (
	"occamy/internal/bm"
	"occamy/internal/hw"
	"occamy/internal/sim"
)

// VictimPolicy selects which over-allocated queue the engine drops from.
type VictimPolicy int

const (
	// RoundRobin iterates over all over-allocated queues — Occamy's
	// choice, avoiding the Maximum Finder entirely.
	RoundRobin VictimPolicy = iota
	// LongestQueue always drops from the longest over-allocated queue —
	// the Fig 21 ablation variant, requiring a Maximum Finder.
	LongestQueue
)

func (v VictimPolicy) String() string {
	if v == LongestQueue {
		return "LongestDrop"
	}
	return "RoundRobinDrop"
}

// TM is the traffic-manager interface the expulsion engine drives. It is
// implemented by internal/switchsim.
type TM interface {
	// Backlogged returns the set of queues holding at least one byte, kept
	// current by the traffic manager and read-only here; its Size is the
	// number of queues sharing the buffer. Every scan — the comparator
	// bank, the longest-queue searches — visits these and not the rest.
	Backlogged() *hw.Bitmap
	// QueueLen returns queue q's length in bytes.
	QueueLen(q int) int
	// ClassesPerPort is the number of classes; queue q is of class q mod it.
	ClassesPerPort() int
	// Threshold returns the admission policy's current limit for every
	// queue of class c.
	Threshold(c int) int
	// HeadPacketCells returns the buffer cells occupied by q's head
	// packet, or 0 when q is empty.
	HeadPacketCells(q int) int
	// HeadDrop expels q's head packet (PD + cell pointers only; cell
	// data memory untouched) and reports its size.
	HeadDrop(q int) (bytes, cells int, ok bool)
	// Now returns the current virtual time.
	Now() sim.Time
	// After schedules fn after d.
	After(d sim.Duration, fn func())
}

// Config parameterizes Occamy.
type Config struct {
	// Alpha is the DT admission α (§4.2). The paper recommends 8.
	Alpha float64
	// AlphaByPrio optionally overrides admission α per priority class
	// (the Fig 15 buffer-choking configuration).
	AlphaByPrio map[int]float64
	// Victim selects the expulsion victim policy.
	Victim VictimPolicy
	// TokenRate is the token-bucket fill rate in cells/second — the
	// switch's aggregate memory bandwidth (§5.3: one token per cell
	// transmission slot). Zero disables the bandwidth gate (used by
	// ablation benches).
	TokenRate float64
	// TokenBurst caps accumulated tokens, in cells. Zero defaults to
	// one maximum-size packet worth (64 cells).
	TokenBurst float64
}

// DefaultAlpha is the paper's recommended admission α.
const DefaultAlpha = 8

// Occamy bundles the admission policy with the expulsion configuration.
// It implements bm.Policy (delegating to DT), so the switch treats it
// like any other BM for admission and additionally runs its Engine.
type Occamy struct {
	*bm.DT
	cfg Config
}

// New returns an Occamy policy. Zero Alpha defaults to 8.
func New(cfg Config) *Occamy {
	if cfg.Alpha == 0 {
		cfg.Alpha = DefaultAlpha
	}
	return &Occamy{
		DT:  &bm.DT{Alpha: cfg.Alpha, AlphaByPrio: cfg.AlphaByPrio},
		cfg: cfg,
	}
}

// Name implements bm.Policy.
func (o *Occamy) Name() string {
	if o.cfg.Victim == LongestQueue {
		return "Occamy-LD"
	}
	return "Occamy"
}

// Config returns the expulsion configuration.
func (o *Occamy) Config() Config { return o.cfg }

// Stats counts what the expulsion engine did.
type Stats struct {
	ExpelledPackets int64
	ExpelledBytes   int64
	ExpelledCells   int64
	Passes          int64 // expulsion attempts (granted or not)
	TokenStalls     int64 // passes deferred waiting for tokens
}

// Engine is the reactive component: the head-drop selector (bitmap +
// round-robin arbiter), the fixed-priority bandwidth gate (token
// bucket), and the head-drop executor, wired to a traffic manager.
type Engine struct {
	tm  TM
	cfg Config

	bitmap  *hw.Bitmap
	thr     []int // the comparator bank's other input: one threshold per class
	ub      []int // per class, at least the length of its longest queue
	arbiter *hw.RoundRobinArbiter
	finder  *hw.MaxFinder // only for the LongestQueue ablation
	vals    []int         // its input row: lengths of over-allocated queues, 0 elsewhere

	tokens     float64
	lastRefill sim.Time
	scheduled  bool
	passFn     func() // e.pass, bound once: scheduling a pass allocates nothing

	stats Stats
}

// NewEngine wires an expulsion engine to a traffic manager.
func NewEngine(tm TM, cfg Config) *Engine {
	n := tm.Backlogged().Size()
	if cfg.TokenBurst == 0 {
		cfg.TokenBurst = 64
	}
	e := &Engine{
		tm:      tm,
		cfg:     cfg,
		bitmap:  hw.NewBitmap(n),
		thr:     make([]int, tm.ClassesPerPort()),
		ub:      make([]int, tm.ClassesPerPort()),
		arbiter: hw.NewRoundRobinArbiter(n),
		tokens:  cfg.TokenBurst,
	}
	if cfg.Victim == LongestQueue {
		e.finder, e.vals = hw.NewMaxFinder(n, 32), make([]int, n)
	}
	e.refreshBitmap() // the bounds start from the queues as they are
	e.passFn = e.pass
	return e
}

// Stats returns a snapshot of the expulsion counters.
func (e *Engine) Stats() Stats { return e.stats }

// Config returns the engine's resolved configuration (with the derived
// token rate and defaulted burst filled in).
func (e *Engine) Config() Config { return e.cfg }

// Tokens returns the current token balance in cells (may be negative:
// the output scheduler always wins the bandwidth arbitration and may
// overdraw).
func (e *Engine) Tokens() float64 {
	e.refill()
	return e.tokens
}

// refill accrues tokens for elapsed virtual time.
func (e *Engine) refill() {
	now := e.tm.Now()
	if now <= e.lastRefill {
		return
	}
	if e.cfg.TokenRate > 0 {
		e.tokens += float64(e.cfg.TokenRate * (now - e.lastRefill).Seconds())
		if e.tokens > e.cfg.TokenBurst {
			e.tokens = e.cfg.TokenBurst
		}
	}
	e.lastRefill = now
}

// OnTransmit debits the bucket for a normal dequeue of the given cell
// count. Transmission always proceeds — the fixed-priority arbiter gives
// the output scheduler absolute priority — so the balance may go
// negative, which in turn stalls expulsion until bandwidth is redundant
// again.
func (e *Engine) OnTransmit(cells int) {
	if e.cfg.TokenRate <= 0 {
		return
	}
	e.refill()
	e.tokens -= float64(cells)
}

// Kick notifies the engine that queue q may have grown. If any queue is
// over-allocated and no expulsion pass is pending, one is scheduled. Every
// growth reaches the engine here, so a class whose bound is within its
// threshold has no queue over it, and the comparator bank is rescanned
// only when some bound is not.
func (e *Engine) Kick(q int) {
	c := q % len(e.ub)
	e.ub[c] = max(e.ub[c], e.tm.QueueLen(q))
	if e.scheduled {
		return
	}
	for k, ub := range e.ub {
		if ub > e.tm.Threshold(k) {
			if e.refreshBitmap() {
				e.scheduled = true
				e.tm.After(0, e.passFn)
			}
			return
		}
	}
}

// refreshBitmap recomputes the over-allocation bitmap (the comparator
// bank of Fig 9), resets each class's bound to its longest queue, and
// reports whether any bit is set. An empty queue is never over-allocated
// — no policy's threshold is negative — so only the backlogged queues are
// compared with their class's threshold.
func (e *Engine) refreshBitmap() bool {
	e.bitmap.Reset()
	for c := range e.thr {
		e.thr[c] = e.tm.Threshold(c)
		e.ub[c] = 0
	}
	any := false
	bl := e.tm.Backlogged()
	for q := bl.Next(0); q >= 0; q = bl.Next(q + 1) {
		n, c := e.tm.QueueLen(q), q%len(e.thr)
		e.ub[c] = max(e.ub[c], n)
		if n > e.thr[c] {
			e.bitmap.Set(q)
			any = true
		}
	}
	return any
}

// OverAllocated refreshes the comparator bank and returns its bitmap, which
// the engine refreshes before every use: a look changes nothing.
func (e *Engine) OverAllocated() *hw.Bitmap {
	e.refreshBitmap()
	return e.bitmap
}

// victim picks the queue to drop from per the configured policy.
func (e *Engine) victim() (int, bool) {
	if e.cfg.Victim == LongestQueue {
		// Longest among over-allocated queues, via the comparator tree.
		if !e.bitmap.Any() {
			return 0, false
		}
		clear(e.vals)
		for q := e.bitmap.Next(0); q >= 0; q = e.bitmap.Next(q + 1) {
			e.vals[q] = e.tm.QueueLen(q)
		}
		return e.finder.Find(e.vals), true
	}
	return e.arbiter.Grant(e.bitmap)
}

// pass performs one expulsion attempt and reschedules itself while work
// remains.
func (e *Engine) pass() {
	e.scheduled = false
	e.stats.Passes++
	if !e.refreshBitmap() {
		return // allocations became fair while we waited
	}
	q, ok := e.victim()
	if !ok {
		return
	}
	cells := e.tm.HeadPacketCells(q)
	if cells == 0 {
		// Queue drained between refresh and grant; try again.
		e.Kick(q)
		return
	}
	if e.cfg.TokenRate > 0 {
		e.refill()
		if e.tokens < float64(cells) {
			// Not enough redundant bandwidth: wait until the bucket
			// refills to the needed level, then retry.
			e.stats.TokenStalls++
			wait := sim.Duration(float64(sim.Second) * (float64(cells) - e.tokens) / e.cfg.TokenRate)
			if wait < 1 {
				wait = 1
			}
			e.scheduled = true
			e.tm.After(wait, e.passFn)
			return
		}
		e.tokens -= float64(cells)
	}
	bytes, cells, ok := e.tm.HeadDrop(q)
	if ok {
		e.stats.ExpelledPackets++
		e.stats.ExpelledBytes += int64(bytes)
		e.stats.ExpelledCells += int64(cells)
	}
	// The head-drop occupies the PD/pointer path for the packet's cell
	// reads; space the next pass by that service time so expulsion never
	// exceeds the modeled memory bandwidth even with a full bucket.
	var pace sim.Duration = 1
	if e.cfg.TokenRate > 0 {
		pace = sim.Duration(float64(sim.Second) * float64(cells) / e.cfg.TokenRate)
		if pace < 1 {
			pace = 1
		}
	}
	e.scheduled = true
	e.tm.After(pace, e.passFn)
}
