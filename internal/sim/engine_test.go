package sim

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			e.After(7, recur)
		}
	}
	e.After(0, recur)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 28 {
		t.Fatalf("Now = %v, want 28", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

// A delay that overflows now+d lands before now; every relative entry
// point must refuse it like an absolute time in the past, or the key would
// sit at the heap root and run the clock backwards.
func TestEngineOverflowingDelayPanics(t *testing.T) {
	for name, arm := range map[string]func(*Engine){
		"After":      func(e *Engine) { e.After(MaxTime, func() {}) },
		"AfterEvent": func(e *Engine) { e.AfterEvent(MaxTime, nopHandler{}, nil) },
		"AfterTimer": func(e *Engine) { e.AfterTimer(MaxTime, func() {}) },
	} {
		e := NewEngine()
		e.RunUntil(10)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with an overflowing delay did not panic", name)
				}
			}()
			arm(e)
		}()
		if e.Pending() != 0 {
			t.Errorf("%s: Pending = %d after the panic, want 0", name, e.Pending())
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(10, func() { fired = true })
	e.At(100, func() { t.Error("event beyond limit fired") })
	e.RunUntil(50)
	if !fired {
		t.Fatal("event before limit did not fire")
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestRunForRelative(t *testing.T) {
	e := NewEngine()
	e.RunFor(25)
	e.RunFor(25)
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AfterTimer(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop, want 0: a stopped timer leaves the queue at once", e.Pending())
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v after draining a queue of canceled timers, want 0", e.Now())
	}
}

// Superseded timers must not pile up until their deadlines: with every
// handler re-arming a 1 ms timer each microsecond, the queue holds one
// event and one timer per handler, however long it runs.
func TestTimerBacklogStaysLive(t *testing.T) {
	const handlers = 256
	e, peak := timerBacklog(handlers)
	e.RunFor(2 * Millisecond) // past the first deadlines
	if *peak > 2*handlers {
		t.Fatalf("peak Pending = %d with %d live handlers and %d live timers", *peak, handlers, handlers)
	}
}

func TestTimerFiresThenStopIsNoop(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.AfterTimer(10, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(1, func() { ran++; e.Stop() })
	e.At(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran = %d events after Stop, want 1", ran)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.Every(0, 10, func() {
		n++
		if n == 4 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 4 {
		t.Fatalf("ticks = %d, want 4", n)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

// A fired timer's handle must be fully inert — even when Stop is called
// from inside the timer's own callback.
func TestTimerStopInsideOwnCallback(t *testing.T) {
	e := NewEngine()
	var tm Timer
	stopped := true
	tm = e.AfterTimer(10, func() { stopped = tm.Stop() })
	e.Run()
	if stopped {
		t.Fatal("Stop from inside the firing callback returned true")
	}
}

// A stale handle from a fired timer must not cancel a newer timer that
// recycled the same slot.
func TestTimerSlotReuseIsolation(t *testing.T) {
	e := NewEngine()
	old := e.AfterTimer(1, func() {})
	e.Run() // fires; slot returns to the freelist
	fired := false
	fresh := e.AfterTimer(5, func() { fired = true }) // reuses the slot
	if old.Stop() {
		t.Fatal("stale handle Stop returned true")
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle canceled the reused slot's timer")
	}
	if fresh.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

// The zero Timer behaves like an already-fired timer.
func TestZeroTimerStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop returned true")
	}
	if tm.Deadline() != 0 {
		t.Fatal("zero Timer Deadline non-zero")
	}
}

// Stopping a ticker from inside its own tick must prevent any further
// occurrence and let the engine drain.
func TestTickerStopFromOwnTick(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.Every(0, 7, func() {
		n++
		tk.Stop()
	})
	e.Run()
	if n != 1 {
		t.Fatalf("ticks after self-stop = %d, want 1", n)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after stopped ticker, want 0", e.Pending())
	}
}

type recordHandler struct {
	got *[]int
}

func (h recordHandler) OnEvent(arg any) { *h.got = append(*h.got, arg.(int)) }

// Typed events and closure events at the same timestamp interleave in
// scheduling order — the determinism contract is flavor-blind.
func TestTypedEventFIFOWithClosures(t *testing.T) {
	e := NewEngine()
	var got []int
	h := recordHandler{&got}
	e.At(5, func() { got = append(got, 0) })
	e.AtEvent(5, h, 1)
	e.At(5, func() { got = append(got, 2) })
	e.AtEvent(5, h, 3)
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed same-time events out of order: %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("ran %d events, want 4", len(got))
	}
}

type nopHandler struct{}

func (nopHandler) OnEvent(any) {}

// The hot scheduling paths must not allocate (beyond amortized heap
// slice growth, which a warmed engine avoids).
func TestSchedulingDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	var h nopHandler
	fn := func() {}
	// Warm the heap and slot freelist.
	for i := 0; i < 1024; i++ {
		e.AfterTimer(Duration(i), fn).Stop()
		e.AtEvent(Time(i), h, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.AfterTimer(10, fn).Stop()
		e.AtEvent(e.Now()+1, h, nil)
		e.RunFor(2)
	})
	if allocs > 0 {
		t.Fatalf("scheduling allocated %.1f objects/op, want 0", allocs)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// Property: an engine processes every scheduled event exactly once and
// the clock is monotonically non-decreasing across callbacks.
func TestEngineProcessesAllEvents(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Time = -1
		count := 0
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					t.Errorf("clock went backwards: %v after %v", e.Now(), last)
				}
				last = e.Now()
				count++
			})
		}
		e.Run()
		return count == len(delays) && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// AppendJSON is the one definition of the duration wire form: it must
// equal what MarshalJSON used to produce, json.Marshal of the
// time.Duration string, at every unit boundary and at the extremes, and
// MarshalJSON must return exactly it in one allocation.
func TestTimeAppendJSON(t *testing.T) {
	for _, v := range []Time{
		0, 1, -1, 999, 1000, 1001, -1000,
		Millisecond - 1, Millisecond, Millisecond + 1, 1500 * Microsecond,
		Second - 1, Second, Second + 1, 90 * Second, 3600 * Second,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	} {
		want, err := json.Marshal(time.Duration(v).String())
		if err != nil {
			t.Fatal(err)
		}
		if got := v.AppendJSON(nil); string(got) != string(want) {
			t.Errorf("Time(%d).AppendJSON = %s, want %s", int64(v), got, want)
		}
		if got := v.AppendJSON([]byte("x:")); string(got) != "x:"+string(want) {
			t.Errorf("Time(%d).AppendJSON did not append: %s", int64(v), got)
		}
		got, err := v.MarshalJSON()
		if err != nil || string(got) != string(want) {
			t.Errorf("Time(%d).MarshalJSON = %s, %v; want %s", int64(v), got, err, want)
		}
		var back Time
		if err := json.Unmarshal(got, &back); err != nil || back != v {
			t.Errorf("Time(%d) round trip = %d, %v", int64(v), int64(back), err)
		}
	}
	v := 1500 * Microsecond
	var kept []byte // the result must escape, as it does into encoding/json
	if n := testing.AllocsPerRun(100, func() { kept, _ = v.MarshalJSON() }); n != 1 || len(kept) == 0 {
		t.Errorf("MarshalJSON allocates %v times, want 1", n)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = v.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON into a sized buffer allocates %v times, want 0", n)
	}
}
