// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulators in this repository (the shared-memory switch model, the
// transport stack, and the network-level experiments) are driven by a
// single Engine: a virtual clock plus a priority event queue. Events
// scheduled for the same instant fire in scheduling order, which makes
// every run bit-for-bit reproducible given the same seed.
//
// # Engine architecture
//
// A pending event is split in two. Its payload — a Handler plus arg — sits
// in a slab cell that never moves while the event is pending; cells are
// recycled through a freelist, so a warmed engine schedules with no
// allocation. Its ordering fields, (timestamp, seq), go to one of two
// sources, each kept in that order, and step fires the earlier of the two
// fronts. seq is bumped exactly once per schedule call
// whichever source takes the event, so what fires is what one queue sorted
// by (at, seq) would fire — same-timestamp events in FIFO scheduling
// order, across the sources as within them — which is the order the
// reference scheduler in model_test.go defines.
//
//   - The near-future lane takes what a packet simulation schedules all
//     day, a serialisation or propagation delay tens of ns to tens of µs
//     ahead, in O(1): a ring of laneBuckets buckets of 2^laneShift ns
//     after the active one, each a list threaded through the payload
//     cells' indices (lane[c] holds at, seq and next for cell c), plus a
//     bitmap of the non-empty ones for TrailingZeros64 to search. A list
//     runs latest first: a key due no earlier than those filed before it,
//     the usual case, goes in at the head, one a little out of order a
//     few links in, and no bucket is ever sorted. Activating a bucket
//     reverses its list into firing order and detaches it from the ring;
//     from then on it is only drained.
//   - The 4-ary min-heap takes everything else: what is due inside the
//     active bucket's window or beyond the ring's horizon, a key whose
//     place is more than laneWalk links into a crowded bucket, and every
//     cancelable key — Timer.Stop must find its key, and a timer slot can
//     follow a heap index through the sifts but not a place in a list;
//     nearly all of them are RTO timers, milliseconds out and stopped
//     long before. Keys are 24-byte pointer-free values, so sifting has
//     no write barriers and four siblings span a cache line and a half.
//     Which of four siblings is smallest is a coin toss, so siftDown
//     picks the child of a full node without branching: (at, seq) is read
//     as one 128-bit unsigned number and "a before b" is the borrow out
//     of a − b (two bits.Sub64). Unsigned agrees with less because no
//     timestamp is negative: the clock starts at zero, only moves
//     forward, and schedule refuses at < now.
//
// While the lane is empty its window follows the clock, or timers that
// alone carried the clock on would leave every later delay beyond the
// horizon. The ring's index array and the per-cell array are separate
// pointer-free allocations: inline, they make Engine 4 KB the collector
// scans for a dozen pointers, which doubled the resident memory of a
// process building many short-lived engines.
//
// Events come in two flavors, with one payload shape:
//
//   - Closure events (At/After/AfterTimer/Every): a func(), stored as a
//     funcHandler, which costs nothing (a func value is pointer-shaped),
//     but each distinct capture allocates a closure at the call site.
//   - Typed events (AtEvent/AfterEvent): a Handler plus an opaque arg. Hot
//     paths (switch ports, host NICs) implement Handler once and schedule
//     with zero allocations — storing a pointer in an `any` does not
//     allocate.
//
// Cancellation is eager. Each armed timer owns a recycled timer slot that
// records where its key currently sits in the heap (sifting keeps that
// position up to date), and Timer.Stop removes the key right there in
// O(log4 live), frees the payload cell and retires the slot. A sender
// that re-arms its RTO on every ACK therefore keeps one entry in the
// queue, not one per ACK waiting out its deadline, and Pending counts
// exactly the events that will still fire. A Timer handle is a value
// (slot index + generation); retiring a slot — on firing or on Stop —
// bumps its generation, so handles held after firing, after Stop or
// across slot reuse harmlessly report false. Arming a timer performs no
// heap allocation.
package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Handy duration units, mirroring time.Nanosecond etc. for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// AppendJSON appends the value's wire form — Go duration syntax in JSON
// quotes ("150µs", "2ms") — to b. It is the one definition of that form:
// MarshalJSON returns it and the trace encoder of internal/scenario
// appends it once per sample. time.Duration.String emits only digits,
// '.', '-' and unit letters, so nothing needs escaping, and its inlined
// result is appended without an intermediate heap string.
func (t Time) AppendJSON(b []byte) []byte {
	b = append(b, '"')
	b = append(b, time.Duration(t).String()...)
	return append(b, '"')
}

// MarshalJSON renders the value in Go duration syntax ("150µs", "2ms"),
// so serialized scenario specs stay human-editable. Nanosecond-exact
// round trip: time.Duration.String always parses back to the same count.
func (t Time) MarshalJSON() ([]byte, error) {
	// 32 bytes hold the longest form, "-2562047h47m16.854775808s" quoted.
	return t.AppendJSON(make([]byte, 0, 32)), nil
}

// UnmarshalJSON accepts Go duration syntax ("2ms") or a bare integer
// nanosecond count.
func (t *Time) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		d, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("sim: bad duration %q: %w", s, err)
		}
		*t = Time(d.Nanoseconds())
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("sim: duration must be a string like \"2ms\" or integer nanoseconds, got %s", data)
	}
	*t = Time(ns)
	return nil
}

// Handler receives typed events scheduled with AtEvent/AfterEvent. A
// single object may multiplex several event kinds by distinguishing on
// arg (e.g. nil vs a packet pointer).
type Handler interface {
	OnEvent(arg any)
}

// key is one heap entry: the ordering fields of a scheduled event plus
// the indices of its other parts. It holds no pointers, so sifting is
// plain 24-byte copies. seq breaks ties so that events at the same
// timestamp run in FIFO scheduling order. slot is the 1-based timer-slot
// index for cancelable events, 0 otherwise.
type key struct {
	at   Time
	seq  uint64
	cell int32
	slot int32
}

// less orders keys by (timestamp, scheduling order).
func (a key) less(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// before is less without a branch: 1 when a orders before b, else 0 —
// the borrow out of the 128-bit subtraction (a.at, a.seq) − (b.at,
// b.seq). The package comment says why unsigned is right for at.
func before(a, b *key) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// payload is what a pending event runs: h.OnEvent(arg). It stays in its
// slab cell from scheduling until the event fires or is canceled.
type payload struct {
	h   Handler
	arg any
}

// funcHandler is the Handler of a closure event.
type funcHandler func()

func (f funcHandler) OnEvent(any) { f() }

// timerSlot is the engine-side state of one armed timer: pos is the
// heap index of its key. Slots are recycled through a freelist once the
// timer fires or is stopped; gen invalidates stale Timer handles across
// reuses.
type timerSlot struct {
	gen uint64
	pos int32
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; simulations are deterministic single-goroutine
// programs by design (run concurrent sweeps with one Engine per
// goroutine instead).
type Engine struct {
	now       Time
	seq       uint64
	heap      []key // 4-ary min-heap of live events
	processed uint64
	stopped   bool

	cells     []payload // payload slab, indexed by key.cell
	freeCells []int32

	slots     []timerSlot
	freeSlots []int32

	// The near-future lane. cur is the active bucket's number (at >>
	// laneShift) and act the 1-based cell at the front of its detached
	// list, 0 once drained. Ring slot b&(laneBuckets-1) holds bucket b,
	// cur < b <= cur+laneBuckets, as the 1-based cell of its latest
	// entry; bits marks the non-empty slots. laneN counts the lane's
	// events.
	cur   int64
	act   int32
	laneN int
	bits  [laneBuckets / 64]uint64
	heads []int32    // laneBuckets entries
	lane  []laneCell // parallel to cells
}

// Lane geometry: 1024 buckets of 32 ns, a 32.8 µs horizon; filing walks
// at most 32 links.
const laneShift, laneBuckets, laneWalk = 5, 1024, 32

// laneCell is the lane's part of a payload cell: the ordering fields of
// the event filed there and the 1-based cell after it in its bucket.
type laneCell struct {
	at   Time
	seq  uint64
	next int32
}

// before reports whether l fires ahead of heap key k: the same (at, seq)
// order on both sides of the merge.
func (l laneCell) before(k key) bool { return key{at: l.at, seq: l.seq}.less(k) }

// spare is the last recycled engine, emptied but for its slabs, unless they
// outgrew 2^14 cells, more than a full-scale raw catalog run needs.
var spare atomic.Pointer[Engine] //occamy:concurrent a handoff between runs, never touched inside one

// NewEngine returns an engine with the clock at zero and no pending events,
// on the slabs of the last recycled engine if there is one.
func NewEngine() *Engine {
	if s := spare.Swap(nil); s != nil { //occamy:concurrent see spare
		e := *s
		*s = Engine{} // the old owner keeps no way into the slabs
		return &e
	}
	return &Engine{heads: make([]int32, laneBuckets)}
}

// Recycle drops every pending event and parks the slabs for the next
// NewEngine. A Timer of e panics from then on.
func (e *Engine) Recycle() {
	clear(e.cells) // they must not keep the run alive
	clear(e.heads)
	*e = Engine{heap: e.heap[:0], cells: e.cells[:0], freeCells: e.freeCells[:0],
		slots: e.slots[:0], freeSlots: e.freeSlots[:0], heads: e.heads, lane: e.lane[:0]}
	if cap(e.cells) <= 1<<14 {
		spare.Store(e) //occamy:concurrent see spare
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of live scheduled events: those that have
// neither fired nor been canceled.
func (e *Engine) Pending() int { return len(e.heap) + e.laneN }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// --- 4-ary heap ------------------------------------------------------------

// place stores k at heap index i and, for a timer, records the position
// in its slot.
func (e *Engine) place(i int, k key) {
	e.heap[i] = k
	if k.slot != 0 {
		e.slots[k.slot-1].pos = int32(i)
	}
}

// siftUp seats k at or above the hole at index i.
func (e *Engine) siftUp(i int, k key) {
	for i > 0 {
		p := (i - 1) >> 2
		pk := e.heap[p]
		if !k.less(pk) {
			break
		}
		e.place(i, pk)
		i = p
	}
	e.place(i, k)
}

// siftDown seats k at or below the hole at index i: at each level the
// smallest of up to four adjacent children moves up. A full node picks
// it by mask arithmetic over before, so the only data-dependent branch
// per level is the exit test against k, taken once per call.
func (e *Engine) siftDown(i int, k key) {
	h := e.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			g := (*[4]key)(h[c : c+4])
			lo := before(&g[1], &g[0])     // 0 or 1
			hi := 2 + before(&g[3], &g[2]) // 2 or 3
			d := before(&g[hi&3], &g[lo&3])
			m = c + int(lo^((lo^hi)&-d))
		} else {
			for j := c + 1; j < n; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
		}
		if !h[m].less(k) {
			break
		}
		e.place(i, h[m])
		i = m
	}
	e.place(i, k)
}

// push adds k to the heap.
func (e *Engine) push(k key) {
	e.heap = append(e.heap, k)
	e.siftUp(len(e.heap)-1, k)
}

// pop removes and returns the earliest key.
func (e *Engine) pop() key {
	root := e.heap[0]
	e.remove(0)
	return root
}

// remove deletes the key at heap index i by re-seating the last key in
// its place.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.less(e.heap[(i-1)>>2]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// --- Scheduling ------------------------------------------------------------

// schedule queues p at time at under the next seq. slot is the 1-based
// timer slot, 0 for a plain event. Scheduling in the past panics: that is
// always a simulation bug, not a recoverable state — and it is where a
// now+d that overflowed lands, from whichever entry point it came.
func (e *Engine) schedule(at Time, p payload, slot int32) {
	if at < e.now {
		panicPast(at, e.now)
	}
	var c int32
	if n := len(e.freeCells); n > 0 {
		c = e.freeCells[n-1]
		e.freeCells = e.freeCells[:n-1]
		cl := &e.cells[c]
		cl.h, cl.arg = p.h, p.arg
	} else {
		e.cells = append(e.cells, p)
		e.lane = append(e.lane, laneCell{})
		c = int32(len(e.cells) - 1)
	}
	e.seq++
	if b := int64(at) >> laneShift; slot == 0 && uint64(b-e.cur-1) < laneBuckets && e.file(b, at, c) {
		return
	}
	e.push(key{at: at, seq: e.seq, cell: c, slot: slot})
}

// file links cell c, due at time at under the seq just issued, into
// bucket b of the lane. A bucket's list runs latest first, so that the
// usual key — due no earlier than everything filed before it — goes in at
// the head, and one a little out of order a few links in; seq only grows,
// so among equal timestamps the new key is the latest. A key more than
// laneWalk links from the head is left to the heap.
func (e *Engine) file(b int64, at Time, c int32) bool {
	i := b & (laneBuckets - 1)
	prev, next := int32(0), e.heads[i]
	for n := 0; next != 0 && e.lane[next-1].at > at; n++ {
		if n == laneWalk {
			return false
		}
		prev, next = next, e.lane[next-1].next
	}
	e.lane[c] = laneCell{at: at, seq: e.seq, next: next}
	if prev != 0 {
		e.lane[prev-1].next = c + 1
	} else {
		e.heads[i] = c + 1
		e.bits[i>>6] |= 1 << (i & 63)
	}
	e.laneN++
	return true
}

// advance makes the next non-empty bucket the active one: its list
// leaves the ring, reversed into firing order. The active list must be
// drained and the ring must hold an event.
func (e *Engine) advance() {
	b := e.cur + 1
	for {
		// The rest of b's word; then whole words, ending — a full lap
		// later — with the low bits of the first.
		i := b & (laneBuckets - 1)
		if m := e.bits[i>>6] >> (i & 63); m != 0 {
			b += int64(bits.TrailingZeros64(m))
			break
		}
		b = (b | 63) + 1
	}
	i := b & (laneBuckets - 1)
	for n := e.heads[i]; n != 0; {
		l := &e.lane[n-1]
		n, l.next, e.act = l.next, e.act, n
	}
	e.cur, e.heads[i] = b, 0
	e.bits[i>>6] &^= 1 << (i & 63)
}

// release empties payload cell c (dropping its h/arg references) and
// recycles it. Here and in schedule a cell is written field by field, not
// as one struct value: while the collector is marking, a whole-struct
// store goes through the bulk barrier (wbZero/wbMove look up the span and
// walk the type's pointer map, several times the price of the event), and
// a field store through the buffered one, so an event costs about the
// same whichever phase the collector is in.
func (e *Engine) release(c int32) {
	cl := &e.cells[c]
	cl.h, cl.arg = nil, nil
	e.freeCells = append(e.freeCells, c)
}

// retire invalidates every handle to timer slot si and recycles it.
func (e *Engine) retire(si int32) {
	e.slots[si].gen++
	e.freeSlots = append(e.freeSlots, si)
}

// The panics live out of line, so the scheduling functions stay free of
// fmt's escaping arguments and budget 0 in internal/lint/escapes.txt.

//go:noinline
func panicPast(t, now Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, now))
}

//go:noinline
func panicNegative(d Duration) {
	panic(fmt.Sprintf("sim: negative delay %d", int64(d)))
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics.
func (e *Engine) At(t Time, fn func()) { e.AtEvent(t, funcHandler(fn), nil) }

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) { e.AfterEvent(d, funcHandler(fn), nil) }

// AtEvent schedules a typed event: h.OnEvent(arg) runs at absolute time
// t. Unlike At, no closure is involved — callers that implement Handler
// schedule without any allocation.
func (e *Engine) AtEvent(t Time, h Handler, arg any) {
	e.schedule(t, payload{h: h, arg: arg}, 0)
}

// AfterEvent schedules h.OnEvent(arg) d nanoseconds from now.
func (e *Engine) AfterEvent(d Duration, h Handler, arg any) {
	if d < 0 {
		panicNegative(d)
	}
	e.schedule(e.now+d, payload{h: h, arg: arg}, 0)
}

// Timer is a cancelable scheduled event. It is a small value: copy it
// freely. The zero Timer is valid and behaves like an already-fired one.
type Timer struct {
	e    *Engine
	slot int32
	gen  uint64
	at   Time
}

// Stop cancels the timer: its event leaves the queue at once. It is safe
// to call Stop multiple times and after the timer has fired (in which
// case it has no effect). It reports whether the call prevented the
// timer from firing.
func (t Timer) Stop() bool {
	e := t.e
	if e == nil {
		return false
	}
	sl := e.slots[t.slot]
	if sl.gen != t.gen {
		return false // fired, stopped, or slot reused by a newer timer
	}
	e.release(e.heap[sl.pos].cell)
	e.remove(int(sl.pos))
	e.retire(t.slot)
	return true
}

// Deadline returns the virtual time at which the timer fires.
func (t Timer) Deadline() Time { return t.at }

// AfterTimer schedules fn after d and returns a handle that can cancel
// it. Arming allocates nothing: the timer state lives in a recycled
// engine slot and the handle is returned by value.
func (e *Engine) AfterTimer(d Duration, fn func()) Timer {
	if d < 0 {
		panicNegative(d)
	}
	var si int32
	if n := len(e.freeSlots); n > 0 {
		si = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		e.slots = append(e.slots, timerSlot{})
		si = int32(len(e.slots) - 1)
	}
	at := e.now + d
	e.schedule(at, payload{h: funcHandler(fn)}, si+1)
	return Timer{e: e, slot: si, gen: e.slots[si].gen, at: at}
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// step executes the earliest pending event. It reports false when the
// queue is empty or the engine was stopped.
func (e *Engine) step(limit Time) bool {
	if e.stopped {
		return false
	}
	if e.act == 0 && e.laneN != 0 {
		e.advance()
	}
	var c int32
	if a := e.act; a != 0 && (len(e.heap) == 0 || e.lane[a-1].before(e.heap[0])) {
		l := &e.lane[a-1]
		if l.at > limit {
			return false
		}
		e.act = l.next
		e.laneN--
		e.now, c = l.at, a-1
	} else {
		if len(e.heap) == 0 || e.heap[0].at > limit {
			return false
		}
		k := e.pop()
		e.now, c = k.at, k.cell
		if k.slot != 0 {
			// Retire before the callback runs, so a Stop from inside it
			// reports false.
			e.retire(k.slot - 1)
		}
		if e.laneN == 0 {
			e.cur = int64(k.at) >> laneShift // the empty lane's window follows the clock
		}
	}
	p := e.cells[c]
	e.release(c)
	e.processed++
	p.h.OnEvent(p.arg)
	return true
}

// Run executes events until the queue drains or Stop is called. The
// clock moves only when an event fires: after a drain, Now is the time of
// the last event that ran, not the deadline of a timer that was stopped
// later than that.
func (e *Engine) Run() {
	for e.step(MaxTime) {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t (even if no event lands there).
func (e *Engine) RunUntil(t Time) {
	for e.step(t) {
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now + d) }

// Every schedules fn at t, t+period, t+2*period, ... until the returned
// Ticker is stopped. fn runs before the next occurrence is scheduled.
type Ticker struct {
	stopped bool
}

// Stop halts the ticker after the current occurrence (if any) completes.
// Stopping from inside the tick callback is safe and prevents the next
// occurrence from being scheduled.
func (t *Ticker) Stop() { t.stopped = true }

// Every starts a periodic event with the given start offset and period.
// The tick closure is allocated once; each recurrence reuses it, so a
// running ticker schedules with zero per-tick allocations.
func (e *Engine) Every(start Duration, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	tk := &Ticker{}
	var tick func()
	tick = func() {
		if tk.stopped {
			return
		}
		fn()
		if !tk.stopped {
			e.After(period, tick)
		}
	}
	e.After(start, tick)
	return tk
}
