package switchsim

import "math/bits"

// SchedKind selects the egress scheduling discipline of a port.
type SchedKind int

const (
	// SchedFIFO serves classes in round-robin by packet arrival — used
	// when ports have a single class.
	SchedFIFO SchedKind = iota
	// SchedDRR is deficit round robin across classes (fair scheduling,
	// §6.2 "performance isolation" setup).
	SchedDRR
	// SchedSP is strict priority: class 0 first (§6.2 "buffer choking"
	// setup).
	SchedSP
)

func (k SchedKind) String() string {
	switch k {
	case SchedDRR:
		return "DRR"
	case SchedSP:
		return "SP"
	default:
		return "FIFO"
	}
}

// scheduler picks the next class to serve on a port. Implementations are
// per-port (they hold rotation/deficit state).
type scheduler interface {
	// next returns the class index to dequeue from, given the port's
	// backlog mask (bit c set while class c holds a packet), or -1 when
	// every class is empty.
	next(backlog uint64, classes []*classQueue) int
}

func newScheduler(kind SchedKind, classes, quantum int) scheduler {
	switch kind {
	case SchedDRR:
		if quantum <= 0 {
			quantum = 2 * 1514
		}
		return &drrSched{quantum: quantum, deficit: make([]int, classes), steps: classes * (2 + pktMTU/quantum)}
	case SchedSP:
		return spSched{}
	default:
		return &rrSched{}
	}
}

// firstFrom returns the first class at or after cur (at most n), wrapping
// at n, whose bit is set in the nonzero mask.
func firstFrom(mask uint64, cur, n int) int {
	c := cur + bits.TrailingZeros64(mask>>cur|mask<<(n-cur))
	if c >= n {
		c -= n
	}
	return c
}

// rrSched serves non-empty classes in simple round-robin, starting its
// search at class cur (n stands for 0).
type rrSched struct{ cur int }

func (s *rrSched) next(backlog uint64, classes []*classQueue) int {
	if backlog == 0 {
		return -1
	}
	c := firstFrom(backlog, s.cur, len(classes))
	s.cur = c + 1
	return c
}

// spSched serves the lowest-numbered (highest-priority) backlogged class.
type spSched struct{}

func (spSched) next(backlog uint64, _ []*classQueue) int {
	if backlog == 0 {
		return -1
	}
	return bits.TrailingZeros64(backlog)
}

// drrSched is deficit round robin: on each visit a backlogged class
// receives `quantum` bytes of credit and is served while the credit
// covers its head packet; the rotor then moves on.
type drrSched struct {
	quantum int
	cur     int
	deficit []int
	inVisit bool // the current class received its quantum this visit
	// steps bounds one pick's scan. With quantum >= MTU, a visit's credit
	// always covers the head packet and one lap suffices; a tiny quantum
	// needs several laps to accumulate credit.
	steps int
}

func (s *drrSched) next(backlog uint64, classes []*classQueue) int {
	if backlog == 0 {
		s.inVisit = false
		return -1
	}
	n := len(classes)
	for i := s.steps; i > 0; i-- {
		if backlog>>s.cur&1 == 0 {
			s.deficit[s.cur] = 0 // an empty class forfeits its credit
			s.inVisit = false
		} else {
			if !s.inVisit {
				s.deficit[s.cur] += s.quantum
				s.inVisit = true
			}
			if head := classes[s.cur].meta.Peek().Size; s.deficit[s.cur] >= head {
				s.deficit[s.cur] -= head
				return s.cur
			}
			s.inVisit = false // credit exhausted: end the visit
		}
		if s.cur++; s.cur == n {
			s.cur = 0
		}
	}
	// Reached only by packets past the MTU: fall back to any backlogged
	// class so forwarding never stalls.
	return firstFrom(backlog, s.cur, n)
}

// pktMTU mirrors pkt.MTU without importing the package here.
const pktMTU = 1500
