package sim

import "testing"

// BenchmarkEngineThroughput measures raw event-processing rate — the
// budget every simulation spends.
func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		if e.Pending() > 1024 {
			e.RunFor(2048)
		}
	}
	e.Run()
}

// BenchmarkEngineTimerChurn measures the arm/cancel pattern the
// transport RTO path generates.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := e.AfterTimer(1000, func() {})
		t.Stop()
		if e.Pending() > 1024 {
			e.RunFor(10)
		}
	}
	e.Run()
}

// rearmHandler is the sender's pattern: every time it runs it replaces
// its long timer (the RTO, which never gets to fire) and schedules its
// next run.
type rearmHandler struct {
	e       *Engine
	timer   Timer
	backlog *int // peak Pending() seen by any handler
}

func nop() {}

func (h *rearmHandler) OnEvent(any) {
	h.timer.Stop()
	h.timer = h.e.AfterTimer(Millisecond, nop)
	h.e.AfterEvent(Microsecond, h, nil)
	if p := h.e.Pending(); p > *h.backlog {
		*h.backlog = p
	}
}

// timerBacklog starts n staggered rearmHandlers on a fresh engine.
func timerBacklog(n int) (e *Engine, peak *int) {
	e, peak = NewEngine(), new(int)
	for i := 0; i < n; i++ {
		e.AtEvent(Time(i), &rearmHandler{e: e, backlog: peak}, nil)
	}
	return e, peak
}

// BenchmarkEngineTimerBacklog measures one handler run — a Stop, an
// AfterTimer and an AfterEvent against a queue of 256 live events and
// 256 live timers. Every run supersedes a timer 1000 runs of that
// handler before its deadline, so a queue that kept canceled timers
// until they expire would carry ~256 000 of them; peak-pending reports
// what this one carries.
func BenchmarkEngineTimerBacklog(b *testing.B) {
	const handlers = 256
	e, peak := timerBacklog(handlers)
	e.RunFor(2 * Millisecond) // reach steady state, grow the slices
	start := e.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for e.Processed()-start < uint64(b.N) {
		e.RunFor(Microsecond)
	}
	b.ReportMetric(float64(*peak), "peak-pending")
}

// fixedDelayHandler re-schedules itself at the four delays that make up
// over 99 % of the plain schedules of the sim-long workload, in their
// measured 23 : 23 : 30 : 21 proportions — an ACK's serialisation, a
// 1 500 B frame at 10 G, and two propagation delays — and replaces its
// 5 ms timer on one run in twelve, the RTO's 8 % share of all schedules.
type fixedDelayHandler struct {
	e     *Engine
	timer Timer
	i     int  // position in the 97-run cycle that deals out the delays
	peak  *int // peak Pending() seen by any handler
}

func (h *fixedDelayHandler) OnEvent(any) {
	h.i = (h.i + 37) % 97
	d := 12 * Microsecond
	switch {
	case h.i < 23:
		d = 51 * Nanosecond
	case h.i < 46:
		d = 1200 * Nanosecond
	case h.i < 76:
		d = 5 * Microsecond
	}
	if h.i < 8 {
		h.timer.Stop()
		h.timer = h.e.AfterTimer(5*Millisecond, nop)
	}
	h.e.AfterEvent(d, h, nil)
	if p := h.e.Pending(); p > *h.peak {
		*h.peak = p
	}
}

// BenchmarkEngineFixedDelays measures one event of the engine's known
// sources: 512 handlers and their 512 timers live, every plain key a
// serialisation or propagation delay ahead. The other Engine benchmarks
// schedule one tick ahead, which only ever exercises the heap.
func BenchmarkEngineFixedDelays(b *testing.B) {
	const handlers = 512
	e, peak := NewEngine(), new(int)
	for i := 0; i < handlers; i++ {
		h := &fixedDelayHandler{e: e, i: i % 97, peak: peak}
		h.timer = e.AfterTimer(5*Millisecond, nop)
		e.AtEvent(Time(i)*29, h, nil)
	}
	e.RunFor(200 * Microsecond) // reach steady state, grow the slices
	start := e.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for e.Processed()-start < uint64(b.N) {
		e.RunFor(Microsecond)
	}
	b.ReportMetric(float64(e.Processed()-start)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(*peak), "peak-pending")
}

type benchHandler struct{ n int }

func (h *benchHandler) OnEvent(any) { h.n++ }

// BenchmarkEngineTypedEvent measures the zero-capture scheduling path
// the switch and host datapaths use.
func BenchmarkEngineTypedEvent(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AfterEvent(1, h, nil)
		if e.Pending() > 1024 {
			e.RunFor(2048)
		}
	}
	e.Run()
	if h.n != b.N {
		b.Fatalf("handled %d events, want %d", h.n, b.N)
	}
	b.ReportMetric(float64(e.Processed())/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRandExp(b *testing.B) {
	r := NewRand(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1)
	}
	_ = sink
}
