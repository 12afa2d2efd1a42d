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
// (mod numActs) and an arg byte saying what it does when it fires. A
// delay operand d means delay(d).
const (
	opAt         = iota // d act arg: At(now+d)
	opAtEvent           // d: AtEvent(now+d)
	opTimer             // d act arg: AfterTimer(d), handle kept forever
	opStop              // i: Stop handle i%len, whatever state it is in
	opRun               // d: RunUntil(now+d)
	opEvery             // start period limit: ticker that stops itself at its limit-th tick
	opStopTicker        // i: stop ticker i%len from outside
	opStorm             // n d: n%16+2 times over, stop the newest handle and arm its successor
	numOps
)

const (
	actNone      = iota
	actStopSelf  // a timer stops its own handle from inside its callback
	actStopOther // stop handle arg%len
	actArm       // arm a timer arg ahead
	actAt        // schedule a plain event arg ahead (0: same timestamp)
	actRearm     // the sender's ACK: stop the newest handle, arm its successor
	numActs
)

// Delay units. The high nibble of a delay byte picks a row {base, step},
// the low nibble counts steps, so one byte reaches every route a key can
// take through the engine: the active bucket (heap), the buckets after it,
// the middle and the far end of the ring, the first bucket past the
// horizon (heap again), and — once the clock has moved by a horizon —
// ring slots that have wrapped. Row 0 is the plain nanoseconds the older
// seeds were written in.
const (
	laneWidth   = Duration(1) << laneShift
	laneHorizon = laneWidth * laneBuckets

	dNs   = 0x00 // lo ns: inside one bucket
	dBkt  = 0x10 // lo buckets ahead
	dSkew = 0x20 // lo × (a bit over a quarter bucket): neighbours in one bucket, any order
	dMid  = 0x30 // half the ring, + lo buckets
	dEdge = 0x40 // lo buckets around the horizon: 7 is the last bucket inside, 8 the first past it
	dFine = 0x50 // the same edge, ns by ns
	dRing = 0x60 // lo eighths of the ring
	dFar  = 0x70 // lo × 3 horizons: only the heap reaches, and the clock gets there
)

var delayRows = [8]struct{ base, step Duration }{
	{0, 1},
	{0, laneWidth},
	{0, laneWidth/4 + 1},
	{laneHorizon / 2, laneWidth},
	{laneHorizon - 7*laneWidth, laneWidth},
	{laneHorizon + laneWidth - 8, 1},
	{0, laneHorizon / 8},
	{0, 3 * laneHorizon},
}

func delay(d byte) Duration {
	r := delayRows[d>>4&7]
	return r.base + Duration(d&15)*r.step
}

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
			m.arm(delay(arg), actNone, 0)
		case actAt:
			m.s.At(m.s.Now()+delay(arg), m.callback(actNone, 0, -1))
		case actRearm:
			m.rearm(1 + delay(arg))
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
			s.At(s.Now()+delay(d), m.callback(act, arg, -1))
		case opAtEvent:
			s.AtEvent(s.Now()+delay(next()), m, m.id())
		case opTimer:
			d, act, arg := next(), next(), next()
			m.arm(delay(d), act, arg)
		case opStop:
			m.stop(int(next()))
		case opRun:
			s.RunUntil(s.Now() + delay(next()))
		case opEvery:
			start, period, limit := next(), next(), next()
			id, ticks := m.id(), 0
			var stop func()
			stop = s.every(delay(start), 1+delay(period), func() {
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
				m.rearm(1 + delay(d))
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

	// The lane. One key on every route — the active bucket, the next one,
	// mid-ring, the last bucket inside the horizon, the first one past it
	// and far beyond — scheduled latest first, with timers (always heap)
	// between them, one of which is stopped.
	{opAt, dFar | 1, 0, 0, opAt, dEdge | 8, 0, 0, opTimer, dEdge | 7, 0, 0, opAt, dEdge | 7, 0, 0, opAt, dMid | 3, 0, 0,
		opTimer, dMid | 3, 0, 0, opAt, dBkt | 1, 0, 0, opAt, dNs | 5, 0, 0, opStop, 1, opRun, dRing | 9, opRun, dFar | 2},
	// One timestamp, alternately in the lane and (the timers) on the heap:
	// FIFO by seq has to hold across the two, and for what a callback adds
	// at that same timestamp from inside a lane event.
	{opAt, dBkt | 2, 0, 0, opTimer, dBkt | 2, 0, 0, opAtEvent, dBkt | 2, opTimer, dBkt | 2, actAt, 0, opAt, dBkt | 2, actAt, 0,
		opTimer, dBkt | 2, 0, 0, opAt, dBkt | 2, actArm, 0, opAtEvent, dBkt | 2, opRun, dBkt | 2},
	// One bucket filled out of order (126, 99, 117, 99 again, 96 ns at
	// the 32 ns geometry: each but the first some links into the list,
	// one of them a tie), a timer between two of them, and its neighbours
	// filled in order.
	{opAt, dSkew | 14, 0, 0, opAt, dSkew | 11, 0, 0, opTimer, dSkew | 12, 0, 0, opAt, dSkew | 13, 0, 0, opAt, dSkew | 11, 0, 0,
		opAt, dBkt | 3, 0, 0, opAt, dBkt | 2, 0, 0, opAt, dBkt | 4, 0, 0, opAt, dSkew | 15, 0, 0, opRun, dBkt | 5},
	// A key earlier than everything in its bucket (108, then 99), and one
	// that ties with the earliest (99 again: it fires after the older 99).
	// Then two more to the front, one after the other, and a tie with the
	// latest.
	{opAt, dSkew | 12, 0, 0, opAt, dSkew | 11, 0, 0, opAt, dSkew | 11, 0, 0, opRun, dBkt | 4,
		opAt, dSkew | 12, 0, 0, opAt, dSkew | 11, 0, 0, opAt, dBkt | 3, actNone, 0, opAt, dNs | 3, 0, 0, opAt, dSkew | 12, 0, 0, opRun, dBkt | 5},
	// RunUntil stops inside an active bucket with keys on both sides of
	// the limit; what is scheduled then lands in the active bucket's window
	// (heap) ahead of the keys still listed there, and after them.
	{opAt, dSkew | 11, 0, 0, opAt, dSkew | 12, 0, 0, opAt, dSkew | 13, 0, 0, opAt, dSkew | 14, 0, 0, opRun, dSkew | 12,
		opAt, dNs | 3, 0, 0, opAt, dNs | 12, 0, 0, opAtEvent, dNs | 9, opRun, dNs | 4, opAt, dNs | 5, actAt, 0, opRun, dBkt | 1},
	// The ring wraps: the clock crosses several horizons with the lane in
	// use the whole way, each run ending mid-ring.
	{opEvery, 1, dRing | 3, 5, opAt, dRing | 7, actAt, dRing | 7, opRun, dRing | 5, opAt, dEdge | 7, actAt, dEdge | 7, opRun, dRing | 13,
		opAt, dRing | 6, actRearm, dRing | 2, opAt, dEdge | 9, actAt, dMid | 1, opRun, dRing | 11, opAt, dBkt | 9, 0, 0, opRun, dRing | 15},
	// Timers alone carry the clock many horizons on while the lane is
	// empty; the plain events after that must be found where they belong.
	{opTimer, dFar | 5, actAt, dBkt | 3, opTimer, dFar | 9, actArm, dMid | 2, opRun, dFar | 10, opAt, dBkt | 2, 0, 0, opAt, dSkew | 9, 0, 0,
		opAt, dSkew | 7, 0, 0, opRun, dBkt | 1},
	// A re-arm storm (heap) under a lane that is draining.
	{opAt, dBkt | 1, actRearm, dBkt | 4, opAt, dBkt | 2, actRearm, dMid | 0, opAt, dBkt | 3, actStopOther, 0, opStorm, 6, dRing | 2,
		opAt, dSkew | 13, actRearm, dNs | 1, opRun, dBkt | 2, opStorm, 3, dBkt | 1, opRun, dRing | 3},
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

// bucketShapeProgram schedules n keys into two neighbouring buckets, four
// timestamps each, cycling so that keys belong at every depth of a
// bucket's list — past laneWalk links, where they take the heap, once n
// is large — among ties within the lane and across the two sources, with a
// timer at one of the timestamps after every seventh.
func bucketShapeProgram(n int) []byte {
	var prog []byte
	for i := 0; i < n; i++ {
		prog = append(prog, opAt, dSkew|byte(8+i*5%8), actNone, 0)
		if i%7 == 6 {
			prog = append(prog, opTimer, dSkew|byte(8+i%8), actNone, 0)
		}
	}
	return append(prog, opRun, dSkew|12, opRun, dBkt|5)
}

func TestEngineMatchesReferenceModel(t *testing.T) {
	for _, prog := range programSeeds {
		diffProgram(t, prog)
	}
	for n := 1; n <= 90; n++ {
		diffProgram(t, heapShapeProgram(n))
		diffProgram(t, bucketShapeProgram(n))
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

// TestLaneRoutes pins which source a key is filed in, so that the delay
// units above keep reaching what they are named for, and the two ways the
// window could be left behind: a clock that timers alone moved, and a key
// at the end of time.
func TestLaneRoutes(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	route := func(name string, wantLane bool, schedule func()) {
		t.Helper()
		lane, heap := e.laneN, len(e.heap)
		schedule()
		if gotLane := e.laneN == lane+1; gotLane != wantLane || e.laneN+len(e.heap) != lane+heap+1 {
			t.Fatalf("%s: lane %d -> %d, heap %d -> %d, want lane = %v", name, lane, e.laneN, heap, len(e.heap), wantLane)
		}
	}
	routes := func() {
		t.Helper()
		route("active bucket", false, func() { e.After(delay(dNs|5), nop) })
		route("next bucket", true, func() { e.After(delay(dBkt|1), nop) })
		route("mid-ring", true, func() { e.After(delay(dMid|3), nop) })
		route("last bucket inside the horizon", true, func() { e.After(delay(dEdge|7), nop) })
		route("first bucket past the horizon", false, func() { e.After(delay(dEdge|8), nop) })
		route("far", false, func() { e.After(delay(dFar|1), nop) })
		route("timer", false, func() { e.AfterTimer(delay(dBkt|1), nop) })
		route("end of time", false, func() { e.At(MaxTime, nop) })
	}
	routes()
	e.RunUntil(e.Now() + delay(dFar|2))
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d with only the end of time left", e.Pending())
	}
	// The lane is empty and a timer takes the clock 27 horizons on: the
	// same delays must find the same routes from there.
	e.AfterTimer(delay(dFar|9), nop)
	e.RunUntil(e.Now() + delay(dFar|9))
	routes()
	e.Run()
	if e.Now() != MaxTime || e.Pending() != 0 {
		t.Fatalf("drained to Now = %v, Pending = %d", e.Now(), e.Pending())
	}
}

func FuzzEngineProgram(f *testing.F) {
	for _, prog := range programSeeds {
		f.Add(prog)
	}
	for _, n := range []int{5, 6, 7, 8, 21, 22, 23, 24} {
		f.Add(heapShapeProgram(n))
	}
	for _, n := range []int{3, 12, 13, 90} {
		f.Add(bucketShapeProgram(n))
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

// TestRecycledEngineStartsClean: an engine recycled with events pending in
// the lane, on the heap and in timer slots hands its slabs to the next
// NewEngine, which then runs every seed program as the reference does. A
// Timer of the recycled engine panics on Stop, before and after the slabs
// move on, and never cancels an event of the engine that holds them now.
func TestRecycledEngineStartsClean(t *testing.T) {
	for _, prog := range programSeeds {
		old := NewEngine()
		nop := func() {}
		for _, d := range []byte{dBkt | 1, dMid | 3, dEdge | 7, dFar | 1, dSkew | 12} {
			old.After(delay(d), nop)
		}
		stale := old.AfterTimer(delay(dBkt|2), nop)
		old.RunUntil(delay(dSkew | 11))
		if old.laneN == 0 || len(old.heap) == 0 {
			t.Fatalf("nothing pending at Recycle: lane %d, heap %d", old.laneN, len(old.heap))
		}
		heads := &old.heads[0]
		old.Recycle()
		mustPanic(t, "Stop on a recycled engine's Timer", func() { stale.Stop() })

		e := NewEngine()
		if &e.heads[0] != heads {
			t.Fatal("NewEngine did not take the recycled slabs")
		}
		fresh := e.AfterTimer(delay(dBkt|2), nop) // the stale timer's slot and generation
		mustPanic(t, "Stop on a Timer of the engine the slabs left", func() { stale.Stop() })
		if !fresh.Stop() {
			t.Fatal("the stale Timer canceled the new engine's timer")
		}
		got := runProgram(engineSched{e}, prog)
		want := runProgram(refSched{&refEngine{}}, prog)
		if !slices.Equal(got, want) {
			t.Fatalf("program %v on recycled slabs:\n engine    %v\n reference %v", prog, got, want)
		}
		e.Recycle()
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
