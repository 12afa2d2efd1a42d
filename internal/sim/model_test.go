package sim

import (
	"math"
	"slices"
	"testing"
)

// Reference-model differential for Engine: a scheduler too simple to be
// wrong runs the same program as the engine, and everything a caller
// can observe must agree after every step.

// refEngine is the reference: one slice kept sorted by (at, seq), a
// linear scan to insert, a linear scan to cancel. No heap, no slots, no
// generations, no recycling.
type refEngine struct {
	now       Time
	seq       uint64
	q         []refEvent
	processed uint64
}

type refEvent struct {
	at  Time
	seq uint64
	run func()
}

func (r *refEngine) Now() Time         { return r.now }
func (r *refEngine) Pending() int      { return len(r.q) }
func (r *refEngine) Processed() uint64 { return r.processed }

// schedule inserts after every event that is due no later, which is
// FIFO among equal timestamps, and returns the event's seq.
func (r *refEngine) schedule(at Time, run func()) uint64 {
	if at < r.now {
		panic("ref: scheduling in the past")
	}
	r.seq++
	i := len(r.q)
	for i > 0 && r.q[i-1].at > at {
		i--
	}
	r.q = slices.Insert(r.q, i, refEvent{at: at, seq: r.seq, run: run})
	return r.seq
}

func (r *refEngine) At(t Time, fn func()) { r.schedule(t, fn) }

func (r *refEngine) AtEvent(t Time, h Handler, arg any) {
	r.schedule(t, func() { h.OnEvent(arg) })
}

// refTimer names its event by seq, which is never reused.
type refTimer struct {
	r   *refEngine
	seq uint64
}

func (r *refEngine) AfterTimer(d Duration, fn func()) refTimer {
	return refTimer{r, r.schedule(r.now+d, fn)}
}

// Stop succeeds exactly when the event is still queued.
func (t refTimer) Stop() bool {
	i := slices.IndexFunc(t.r.q, func(ev refEvent) bool { return ev.seq == t.seq })
	if i < 0 {
		return false
	}
	t.r.q = slices.Delete(t.r.q, i, i+1)
	return true
}

func (r *refEngine) step(limit Time) bool {
	if len(r.q) == 0 || r.q[0].at > limit {
		return false
	}
	ev := r.q[0]
	r.q = r.q[1:]
	r.now = ev.at
	r.processed++
	ev.run()
	return true
}

func (r *refEngine) Run() {
	for r.step(MaxTime) {
	}
}

func (r *refEngine) RunUntil(t Time) {
	for r.step(t) {
	}
	if r.now < t {
		r.now = t
	}
}

type refTicker struct{ stopped bool }

func (t *refTicker) Stop() { t.stopped = true }

func (r *refEngine) Every(start, period Duration, fn func()) *refTicker {
	tk := &refTicker{}
	var tick func()
	tick = func() {
		if tk.stopped {
			return
		}
		fn()
		if !tk.stopped {
			r.schedule(r.now+period, tick)
		}
	}
	r.schedule(r.now+start, tick)
	return tk
}

// sched is what a program needs of either scheduler. The two methods
// whose result types differ go through adapters.
type sched interface {
	Now() Time
	Pending() int
	Processed() uint64
	At(Time, func())
	AtEvent(Time, Handler, any)
	RunUntil(Time)
	Run()
	afterTimer(Duration, func()) stopper
	every(start, period Duration, fn func()) (stop func())
}

type stopper interface{ Stop() bool }

type engineSched struct{ *Engine }

func (e engineSched) afterTimer(d Duration, fn func()) stopper { return e.AfterTimer(d, fn) }
func (e engineSched) every(start, period Duration, fn func()) func() {
	return e.Every(start, period, fn).Stop
}

type refSched struct{ *refEngine }

func (r refSched) afterTimer(d Duration, fn func()) stopper { return r.AfterTimer(d, fn) }
func (r refSched) every(start, period Duration, fn func()) func() {
	return r.Every(start, period, fn).Stop
}

// Program encoding: an op byte (mod numOps) followed by its operand
// bytes; missing operands read as 0. Every callback carries an act byte
// (mod numActs) and an arg byte saying what it does when it fires.
const (
	opAt         = iota // d act arg: At(now+d%16)
	opAtEvent           // d: AtEvent(now+d%16)
	opTimer             // d act arg: AfterTimer(d%16), handle kept forever
	opStop              // i: Stop handle i%len, whatever state it is in
	opRun               // d: RunUntil(now+d%12)
	opEvery             // start period limit: ticker that stops itself at its limit-th tick
	opStopTicker        // i: stop ticker i%len from outside
	opStorm             // n d: n%16+2 times over, stop the newest handle and arm its successor
	numOps
)

const (
	actNone      = iota
	actStopSelf  // a timer stops its own handle from inside its callback
	actStopOther // stop handle arg%len
	actArm       // arm a timer arg%8 ahead
	actAt        // schedule a plain event arg%8 ahead (0: same timestamp)
	actRearm     // the sender's ACK: stop the newest handle, arm its successor
	numActs
)

// obs is one observation. Every scheduler state a caller can read is in
// it, so equal logs mean equal firing order, Stop results and counters
// at every step.
type obs struct {
	kind      byte // 'f'ired, 'h'andler, 't'ick, 's'top result, 'o'p done, 'e'nd
	id        int
	ok        bool
	now       Time
	pending   int
	processed uint64
}

type machine struct {
	s       sched
	log     []obs
	handles []stopper
	tickers []func()
	ids     int
}

func (m *machine) note(kind byte, id int, ok bool) {
	m.log = append(m.log, obs{kind, id, ok, m.s.Now(), m.s.Pending(), m.s.Processed()})
}

func (m *machine) OnEvent(arg any) { m.note('h', arg.(int), false) }

func (m *machine) id() int { m.ids++; return m.ids }

func (m *machine) stop(i int) {
	if n := len(m.handles); n > 0 {
		m.note('s', i%n, m.handles[i%n].Stop())
	}
}

func (m *machine) arm(d Duration, act, arg byte) {
	self := len(m.handles)
	m.handles = append(m.handles, m.s.afterTimer(d, m.callback(act, arg, self)))
}

func (m *machine) rearm(d Duration) {
	m.stop(len(m.handles) - 1)
	m.arm(d, actNone, 0)
}

// callback builds what an event does when it fires. What it schedules
// in turn does nothing further, so a program's work is bounded by its
// length.
func (m *machine) callback(act, arg byte, self int) func() {
	id := m.id()
	return func() {
		m.note('f', id, false)
		switch act % numActs {
		case actStopSelf:
			if self >= 0 {
				m.stop(self)
			}
		case actStopOther:
			m.stop(int(arg))
		case actArm:
			m.arm(Duration(arg%8), actNone, 0)
		case actAt:
			m.s.At(m.s.Now()+Time(arg%8), m.callback(actNone, 0, -1))
		case actRearm:
			m.rearm(1 + Duration(arg%8))
		}
	}
}

// runProgram interprets prog against s and returns the log.
func runProgram(s sched, prog []byte) []obs {
	m := &machine{s: s}
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	for len(prog) > 0 {
		op := next() % numOps
		switch op {
		case opAt:
			d, act, arg := next(), next(), next()
			s.At(s.Now()+Time(d%16), m.callback(act, arg, -1))
		case opAtEvent:
			s.AtEvent(s.Now()+Time(next()%16), m, m.id())
		case opTimer:
			d, act, arg := next(), next(), next()
			m.arm(Duration(d%16), act, arg)
		case opStop:
			m.stop(int(next()))
		case opRun:
			s.RunUntil(s.Now() + Time(next()%12))
		case opEvery:
			start, period, limit := next(), next(), next()
			id, ticks := m.id(), 0
			var stop func()
			stop = s.every(Duration(start%4), 1+Duration(period%5), func() {
				m.note('t', id, false)
				if ticks++; ticks > int(limit%6) {
					stop()
				}
			})
			m.tickers = append(m.tickers, stop)
		case opStopTicker:
			if n := len(m.tickers); n > 0 {
				m.tickers[int(next())%n]()
			}
		case opStorm:
			n, d := next(), next()
			for i := 0; i < int(n%16)+2; i++ {
				m.rearm(1 + Duration(d%8))
			}
		}
		m.note('o', int(op), false)
	}
	for _, stop := range m.tickers {
		stop()
	}
	s.Run() // drain: Now ends at the last event that fired
	m.note('e', 0, false)
	return m.log
}

// diffProgram runs prog on the engine and on the reference and fails on
// the first observation that differs.
func diffProgram(t *testing.T, prog []byte) {
	t.Helper()
	got := runProgram(engineSched{NewEngine()}, prog)
	want := runProgram(refSched{&refEngine{}}, prog)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("program %v\nobservation %d: engine %+v, reference %+v", prog, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("program %v: engine made %d observations, reference %d", prog, len(got), len(want))
	}
}

// programSeeds are the cases worth naming; the random programs and the
// fuzzer start from them.
var programSeeds = [][]byte{
	// Stop from inside the timer's own callback, then again after it fired.
	{opTimer, 3, actStopSelf, 0, opRun, 5, opStop, 0},
	// Stop twice before the deadline; the timer must never fire.
	{opTimer, 5, actNone, 0, opStop, 0, opStop, 0, opRun, 10},
	// A fired timer's slot is reused: the stale handle must not cancel
	// the new timer, in either order of Stop.
	{opTimer, 1, actNone, 0, opRun, 2, opTimer, 5, actNone, 0, opStop, 0, opRun, 10, opStop, 1},
	// A stopped timer's slot is reused at once; both handles get stopped.
	{opTimer, 9, actNone, 0, opStop, 0, opTimer, 9, actNone, 0, opStop, 0, opStop, 1, opStop, 1, opRun, 11},
	// Same-timestamp ties across all three kinds, and a callback that
	// schedules at its own timestamp.
	{opAt, 3, actNone, 0, opAtEvent, 3, opTimer, 3, actNone, 0, opAt, 3, actAt, 0, opAtEvent, 3, opRun, 3},
	// Re-arm storms with other timers live around them, run past the
	// surviving deadline.
	{opTimer, 6, actNone, 0, opStorm, 13, 4, opTimer, 2, actRearm, 7, opRun, 3, opStorm, 5, 0, opRun, 11},
	// A callback cancels a timer due at the same instant, and one due later.
	{opTimer, 4, actNone, 0, opTimer, 9, actNone, 0, opAt, 4, actStopOther, 0, opAt, 4, actStopOther, 1, opRun, 11},
	// Stop removes a key from the middle of the heap. The last key takes
	// its place from another branch and is earlier than the hole's parent
	// (index 5 under index 1, due at 11 under 10; the last key is due at
	// 2), so it has to sift up.
	{opAt, 0, 0, 0, opAt, 10, 0, 0, opAt, 1, 0, 0, opAt, 12, 0, 0, opAt, 13, 0, 0, opTimer, 11, 0, 0,
		opAt, 14, 0, 0, opAt, 14, 0, 0, opAt, 14, 0, 0, opAt, 2, 0, 0, opStop, 0, opRun, 11, opRun, 11},
	// The same with the hole at index 1 above earlier keys than the last
	// one (due at 9), which has to sift down.
	{opAt, 0, 0, 0, opTimer, 1, 0, 0, opAt, 5, 0, 0, opAt, 6, 0, 0, opAt, 7, 0, 0, opAt, 2, 0, 0,
		opAt, 3, 0, 0, opAt, 4, 0, 0, opAt, 4, 0, 0, opAt, 9, 0, 0, opStop, 0, opRun, 11},
	// Tickers: one stops itself, one is stopped from outside mid-run.
	{opEvery, 0, 0, 2, opEvery, 1, 2, 5, opRun, 4, opStopTicker, 1, opRun, 11},
}

// heapShapeProgram arms n timers (deadlines spread over 16 ticks with
// plenty of ties, so both halves of the key order decide), stops two from
// the middle of the heap, and drains in three steps with a second batch
// of n/2 armed and one more middle Stop after the first. Draining pops at
// every live size from n down, so over n = 1..90 the sift meets every
// n mod 4 with a full and a partial last node on up to four levels.
func heapShapeProgram(n int) []byte {
	var prog []byte
	arm := func(count, salt int) {
		for i := 0; i < count; i++ {
			prog = append(prog, opTimer, byte((i*7+salt*3)%16), actNone, 0)
		}
	}
	arm(n, n)
	prog = append(prog, opStop, byte(n/2), opStop, byte(n/3), opRun, 5)
	arm(n/2, n+1)
	prog = append(prog, opStop, byte(n+n/4), opRun, 11, opRun, 11)
	return prog
}

func TestEngineMatchesReferenceModel(t *testing.T) {
	for _, prog := range programSeeds {
		diffProgram(t, prog)
	}
	for n := 1; n <= 90; n++ {
		diffProgram(t, heapShapeProgram(n))
	}
	rng := NewRand(20250928)
	prog := make([]byte, 400)
	for i := 0; i < 300; i++ {
		for j := range prog {
			prog[j] = byte(rng.Uint64())
		}
		diffProgram(t, prog)
	}
}

func FuzzEngineProgram(f *testing.F) {
	for _, prog := range programSeeds {
		f.Add(prog)
	}
	for _, n := range []int{5, 6, 7, 8, 21, 22, 23, 24} {
		f.Add(heapShapeProgram(n))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("long programs only repeat short ones")
		}
		diffProgram(t, prog)
	})
}

// keyOrderCases are the corners of the (at, seq) order: the ends of the
// timestamp range, equal timestamps decided by seq either way, and seq
// where the low-word subtraction wraps.
var keyOrderCases = []struct{ a, b key }{
	{key{at: 0, seq: 1}, key{at: 0, seq: 2}},
	{key{at: 0, seq: 2}, key{at: 1, seq: 1}},
	{key{at: 1, seq: 1}, key{at: MaxTime, seq: 0}},
	{key{at: 0, seq: math.MaxUint64}, key{at: 1, seq: 0}},
	{key{at: 0, seq: math.MaxUint64}, key{at: MaxTime, seq: math.MaxUint64 - 1}},
	{key{at: MaxTime, seq: math.MaxUint64 - 1}, key{at: MaxTime, seq: math.MaxUint64}},
	{key{at: MaxTime - 1, seq: math.MaxUint64}, key{at: MaxTime, seq: 0}},
	{key{at: 7, seq: 1 << 63}, key{at: 7, seq: 1<<63 + 1}},
	{key{at: 7, seq: 0}, key{at: 7, seq: math.MaxUint64}},
	{key{at: 7, seq: 9}, key{at: 7, seq: 9}},
}

func checkKeyOrder(t *testing.T, a, b key) {
	t.Helper()
	if got, want := before(&a, &b) == 1, a.less(b); got != want {
		t.Errorf("before(%+v, %+v) = %v, less = %v", a, b, got, want)
	}
	if got, want := before(&b, &a) == 1, b.less(a); got != want {
		t.Errorf("before(%+v, %+v) = %v, less = %v", b, a, got, want)
	}
}

func TestKeyOrderMatchesLess(t *testing.T) {
	for _, c := range keyOrderCases {
		checkKeyOrder(t, c.a, c.b)
	}
}

// FuzzKeyOrder holds the branch-free comparison of siftDown to less over
// every pair of keys a run can hold: timestamps are never negative.
func FuzzKeyOrder(f *testing.F) {
	for _, c := range keyOrderCases {
		f.Add(int64(c.a.at), c.a.seq, int64(c.b.at), c.b.seq)
	}
	f.Fuzz(func(t *testing.T, aAt int64, aSeq uint64, bAt int64, bSeq uint64) {
		if aAt < 0 || bAt < 0 {
			t.Skip("schedule refuses at < now, and now starts at zero")
		}
		checkKeyOrder(t, key{at: Time(aAt), seq: aSeq}, key{at: Time(bAt), seq: bSeq})
	})
}
