package bm

import (
	"math"
	"testing"
	"testing/quick"
)

// fakeState is a hand-settable State for policy unit tests.
type fakeState struct {
	capacity int
	lens     []int
	prios    []int
	rates    []float64
}

func (s *fakeState) Capacity() int { return s.capacity }
func (s *fakeState) Occupancy() int {
	t := 0
	for _, l := range s.lens {
		t += l
	}
	return t
}
func (s *fakeState) NumQueues() int     { return len(s.lens) }
func (s *fakeState) QueueLen(q int) int { return s.lens[q] }
func (s *fakeState) QueuePriority(q int) int {
	if s.prios == nil {
		return 0
	}
	return s.prios[q]
}
func (s *fakeState) DequeueRate(q int) float64 {
	if s.rates == nil {
		return 1
	}
	return s.rates[q]
}

// BackloggedInClass counts by definition what the switch keeps.
func (s *fakeState) BackloggedInClass(c int) int {
	n := 0
	for q := range s.lens {
		if s.QueueLen(q) > 0 && s.QueuePriority(q) == c {
			n++
		}
	}
	return n
}

func TestCompleteSharing(t *testing.T) {
	st := &fakeState{capacity: 1000, lens: []int{900, 0}}
	cs := CompleteSharing{}
	if !cs.Admit(st, 1, 100) {
		t.Fatal("CS rejected a packet that fits")
	}
	if cs.Admit(st, 1, 101) {
		t.Fatal("CS admitted a packet beyond capacity")
	}
	if cs.Threshold(st, 0) != 1000 {
		t.Fatalf("CS threshold = %d", cs.Threshold(st, 0))
	}
}

func TestStaticThreshold(t *testing.T) {
	st := &fakeState{capacity: 1000, lens: []int{500, 0}}
	p := StaticThreshold{Limit: 500}
	if p.Admit(st, 0, 10) {
		t.Fatal("ST admitted into a queue at its limit")
	}
	if !p.Admit(st, 1, 10) {
		t.Fatal("ST rejected an under-limit queue")
	}
}

func TestDTThresholdFormula(t *testing.T) {
	st := &fakeState{capacity: 1000, lens: []int{200, 300}}
	dt := NewDT(2)
	// Free buffer = 1000-500 = 500, T = 2*500 = 1000.
	if got := dt.Threshold(st, 0); got != 1000 {
		t.Fatalf("Threshold = %d, want 1000", got)
	}
	dt.Alpha = 0.5
	if got := dt.Threshold(st, 0); got != 250 {
		t.Fatalf("Threshold = %d, want 250", got)
	}
}

func TestDTAdmission(t *testing.T) {
	st := &fakeState{capacity: 1000, lens: []int{400, 100}}
	dt := NewDT(1) // free = 500, T = 500
	if !dt.Admit(st, 0, 100) {
		t.Fatal("DT rejected under-threshold queue")
	}
	st.lens[0] = 500
	// free = 400, T = 400, qlen 500 >= 400.
	if dt.Admit(st, 0, 100) {
		t.Fatal("DT admitted over-threshold queue")
	}
	// The other queue is under threshold.
	if !dt.Admit(st, 1, 100) {
		t.Fatal("DT rejected the other queue")
	}
}

func TestDTPerClassAlpha(t *testing.T) {
	st := &fakeState{capacity: 900, lens: []int{0, 0, 0}, prios: []int{0, 1, 1}}
	dt := &DT{Alpha: 1, AlphaByPrio: map[int]float64{0: 8}}
	for q, want := range []int{7200, 900, 900} {
		if got := dt.Threshold(st, q); got != want {
			t.Fatalf("queue %d (class %d) threshold = %d, want %d", q, st.prios[q], got, want)
		}
		if got := dt.ClassThreshold(st, st.prios[q]); got != want {
			t.Fatalf("class %d threshold = %d, want %d", st.prios[q], got, want)
		}
	}
}

func TestDTPhysicalLimit(t *testing.T) {
	st := &fakeState{capacity: 100, lens: []int{99, 0}}
	dt := NewDT(8)
	if dt.Admit(st, 1, 2) {
		t.Fatal("DT admitted a packet that does not physically fit")
	}
}

// Property (Eq. 2): with n congested queues in steady state, each queue
// sits at α·F and the free buffer is B/(1+αn); the occupancy plus
// reservation always accounts for the full buffer.
func TestReservedFractionIdentity(t *testing.T) {
	f := func(alphaExp uint8, n uint8) bool {
		alpha := math.Pow(2, float64(alphaExp%6)-2) // 0.25 .. 8
		queues := int(n%16) + 1
		fr := ReservedFraction(alpha, queues)
		if fr <= 0 || fr > 1 {
			return false
		}
		// n·q + F = B  with q = α·F
		total := float64(queues)*alpha*fr + fr
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReservedFractionKnownValues(t *testing.T) {
	// §4.4: α=8, N=1 reserves B/9; α=16 reserves B/17.
	if got := ReservedFraction(8, 1); math.Abs(got-1.0/9) > 1e-12 {
		t.Fatalf("ReservedFraction(8,1) = %v, want 1/9", got)
	}
	if got := ReservedFraction(16, 1); math.Abs(got-1.0/17) > 1e-12 {
		t.Fatalf("ReservedFraction(16,1) = %v, want 1/17", got)
	}
	// §4.2: α=8 lets one queue occupy 88.9% of the buffer.
	occ := float64(SteadyStateQueueLen(8, 1, 1_000_000)) / 1e6
	if math.Abs(occ-0.889) > 0.001 {
		t.Fatalf("steady-state occupancy = %v, want ~0.889", occ)
	}
}

func TestFairExpulsionAlphaBound(t *testing.T) {
	// §4.4: with N=M=1, 1/α ≥ R/V − 2, so V ≥ R/2 permits any α.
	if b := FairExpulsionAlphaBound(2, 1, 1, 1); math.Abs(b-0) > 1e-12 {
		t.Fatalf("bound(R=2V) = %v, want 0", b)
	}
	if b := FairExpulsionAlphaBound(4, 1, 1, 1); b <= 0 {
		t.Fatalf("bound(R=4V) = %v, want positive", b)
	}
	if b := FairExpulsionAlphaBound(1, 0, 1, 1); b < 1e17 {
		t.Fatalf("bound with no expulsion = %v, want huge", b)
	}
}

func TestABMThresholdScalesWithCongestion(t *testing.T) {
	st := &fakeState{
		capacity: 1000,
		lens:     []int{100, 100, 0},
		prios:    []int{0, 0, 0},
		rates:    []float64{1, 1, 1},
	}
	abm := NewABM(2)
	// free = 800, n_0 = 2 congested, T = 2/2*800*1 = 800.
	if got := abm.Threshold(st, 0); got != 800 {
		t.Fatalf("Threshold = %d, want 800", got)
	}
	st.lens[2] = 100 // third congested queue
	// free = 700, n=3: T = 2/3*700 = 466.
	if got := abm.Threshold(st, 0); got != 466 {
		t.Fatalf("Threshold = %d, want 466", got)
	}
}

func TestABMThresholdScalesWithDrainRate(t *testing.T) {
	st := &fakeState{
		capacity: 1000,
		lens:     []int{100, 100},
		prios:    []int{0, 0},
		rates:    []float64{1, 0.1},
	}
	abm := NewABM(2)
	fast := abm.Threshold(st, 0)
	slow := abm.Threshold(st, 1)
	if slow >= fast {
		t.Fatalf("slow-draining threshold %d >= fast %d", slow, fast)
	}
	if slow != fast/10 {
		t.Fatalf("slow = %d, want %d", slow, fast/10)
	}
}

func TestABMPriorityClassesIndependent(t *testing.T) {
	st := &fakeState{
		capacity: 1000,
		lens:     []int{100, 100, 100, 0},
		prios:    []int{0, 0, 1, 1},
		rates:    []float64{1, 1, 1, 1},
	}
	abm := NewABM(1)
	// prio 0 has 2 congested queues, prio 1 has 1.
	if t0, t1 := abm.Threshold(st, 0), abm.Threshold(st, 2); t1 != 2*t0 {
		t.Fatalf("class thresholds %d, %d: want 1:2 ratio", t0, t1)
	}
}

func TestABMMinRateFloor(t *testing.T) {
	st := &fakeState{
		capacity: 1000,
		lens:     []int{100},
		prios:    []int{0},
		rates:    []float64{0},
	}
	abm := NewABM(1)
	if abm.Threshold(st, 0) == 0 {
		t.Fatal("paused queue received zero threshold; cannot restart")
	}
}

func TestABMAdmit(t *testing.T) {
	st := &fakeState{
		capacity: 1000,
		lens:     []int{850, 0},
		prios:    []int{0, 0},
		rates:    []float64{1, 1},
	}
	abm := NewABM(2)
	// free = 150, n=1 congested, T = 300 < 850: q0 over.
	if abm.Admit(st, 0, 10) {
		t.Fatal("ABM admitted over-threshold queue")
	}
	if !abm.Admit(st, 1, 10) {
		t.Fatal("ABM rejected empty queue")
	}
}

// Property: DT thresholds are monotonically non-increasing in total
// occupancy — more congestion never grants more buffer.
func TestDTMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		dt := NewDT(2)
		s1 := &fakeState{capacity: 1 << 16, lens: []int{lo}}
		s2 := &fakeState{capacity: 1 << 16, lens: []int{hi}}
		return dt.Threshold(s1, 0) >= dt.Threshold(s2, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	st := &fakeState{capacity: 1, lens: []int{0}}
	_ = st
	for _, p := range []Policy{CompleteSharing{}, StaticThreshold{Limit: 1}, NewDT(1), NewABM(1)} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}
