package switchsim

import (
	"math/rand"
	"slices"
	"testing"

	"occamy/internal/pkt"
)

// The schedulers as they were before the backlog mask: each probes every
// class's packet count, stepping with a % per class. They are the
// reference the mask schedulers must pick exactly like.

type refRR struct{ cur int }

func (s *refRR) next(classes []*classQueue) int {
	n := len(classes)
	for i := 0; i < n; i++ {
		c := (s.cur + i) % n
		if classes[c].meta.Len() > 0 {
			s.cur = (c + 1) % n
			return c
		}
	}
	return -1
}

func refSP(classes []*classQueue) int {
	for c, q := range classes {
		if q.meta.Len() > 0 {
			return c
		}
	}
	return -1
}

type refDRR struct {
	quantum int
	cur     int
	deficit []int
	inVisit bool
}

func (s *refDRR) next(classes []*classQueue) int {
	n := len(classes)
	backlogged := false
	for _, q := range classes {
		if q.meta.Len() > 0 {
			backlogged = true
			break
		}
	}
	if !backlogged {
		s.inVisit = false
		return -1
	}
	maxIter := n * (2 + pktMTU/s.quantum)
	for i := 0; i < maxIter; i++ {
		q := classes[s.cur]
		if q.meta.Len() == 0 {
			s.deficit[s.cur] = 0
			s.inVisit = false
			s.cur = (s.cur + 1) % n
			continue
		}
		if !s.inVisit {
			s.deficit[s.cur] += s.quantum
			s.inVisit = true
		}
		if head := q.meta.Peek().Size; s.deficit[s.cur] >= head {
			s.deficit[s.cur] -= head
			return s.cur
		}
		s.inVisit = false
		s.cur = (s.cur + 1) % n
	}
	for i := 0; i < n; i++ {
		c := (s.cur + i) % n
		if classes[c].meta.Len() > 0 {
			return c
		}
	}
	return -1
}

// TestSchedulersMatchProbing drives the mask schedulers and the probing
// reference over seeded programs of arrivals, head drops and transmits on
// ports of 1 to 64 classes, packets up to jumbo size (so DRR's fallback
// runs too), and compares every pick and DRR's rotor, credit and visit.
func TestSchedulersMatchProbing(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(MaxClassesPerPort)
		if seed%10 == 0 {
			n = MaxClassesPerPort
		}
		quantum := []int{1, 100, 700, 1500, 3028}[rng.Intn(5)]
		classes := make([]*classQueue, n)
		for c := range classes {
			classes[c] = new(classQueue)
		}
		var backlog uint64
		rr, drr := &rrSched{}, newScheduler(SchedDRR, n, quantum).(*drrSched)
		rrRef, drrRef := &refRR{}, &refDRR{quantum: quantum, deficit: make([]int, n)}
		pop := func(c int) {
			if classes[c].meta.Pop(); classes[c].meta.Len() == 0 {
				backlog &^= 1 << c
			}
		}
		for step := 0; step < 2000; step++ {
			switch x := rng.Intn(10); {
			case x < 4:
				c := rng.Intn(n)
				if rng.Intn(4) == 0 {
					c = rng.Intn(min(n, 3)) // crowd the low classes
				}
				size := 40 + rng.Intn(1460)
				if rng.Intn(20) == 0 {
					size = 1500 + rng.Intn(8000)
				}
				classes[c].meta.Push(&pkt.Packet{Size: size})
				backlog |= 1 << c
			case x < 5:
				if c := rng.Intn(n); classes[c].meta.Len() > 0 {
					pop(c) // a head drop, behind the schedulers' backs
				}
			default:
				sched, ref := scheduler(rr), rrRef.next
				switch x {
				case 7:
					sched, ref = spSched{}, refSP
				case 8, 9:
					sched, ref = drr, drrRef.next
				}
				want := ref(classes)
				if got := sched.next(backlog, classes); got != want {
					t.Fatalf("seed %d step %d: %T picked %d, the probing reference %d", seed, step, sched, got, want)
				}
				if drr.cur != drrRef.cur || drr.inVisit != drrRef.inVisit || !slices.Equal(drr.deficit, drrRef.deficit) {
					t.Fatalf("seed %d step %d: DRR state (%d, %v, %v), reference (%d, %v, %v)",
						seed, step, drr.cur, drr.inVisit, drr.deficit, drrRef.cur, drrRef.inVisit, drrRef.deficit)
				}
				if want >= 0 {
					pop(want)
				}
			}
		}
	}
}
