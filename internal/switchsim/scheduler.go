package switchsim

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
	// next returns the class index to dequeue from, or -1 when every
	// class is empty.
	next(classes []*classQueue) int
}

func newScheduler(kind SchedKind, classes, quantum int) scheduler {
	switch kind {
	case SchedDRR:
		if quantum <= 0 {
			quantum = 2 * 1514
		}
		return &drrSched{quantum: quantum, deficit: make([]int, classes)}
	case SchedSP:
		return spSched{}
	default:
		return &rrSched{}
	}
}

// rrSched serves non-empty classes in simple round-robin.
type rrSched struct{ cur int }

func (s *rrSched) next(classes []*classQueue) int {
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

// spSched serves the lowest-numbered (highest-priority) backlogged class.
type spSched struct{}

func (spSched) next(classes []*classQueue) int {
	for c, q := range classes {
		if q.meta.Len() > 0 {
			return c
		}
	}
	return -1
}

// drrSched is deficit round robin: on each visit a backlogged class
// receives `quantum` bytes of credit and is served while the credit
// covers its head packet; the rotor then moves on.
type drrSched struct {
	quantum int
	cur     int
	deficit []int
	inVisit bool // the current class received its quantum this visit
}

func (s *drrSched) next(classes []*classQueue) int {
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
	// With quantum >= MTU, a visit's credit always covers the head
	// packet and one lap suffices. A tiny quantum needs several laps to
	// accumulate credit; bound the scan accordingly.
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
		// Credit exhausted: end the visit and rotate.
		s.inVisit = false
		s.cur = (s.cur + 1) % n
	}
	// Unreachable given the iteration bound; fall back to any
	// backlogged class so forwarding never stalls.
	for i := 0; i < n; i++ {
		c := (s.cur + i) % n
		if classes[c].meta.Len() > 0 {
			return c
		}
	}
	return -1
}

// pktMTU mirrors pkt.MTU without importing the package here.
const pktMTU = 1500
