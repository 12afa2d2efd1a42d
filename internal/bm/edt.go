package bm

// EDT is the Enhanced Dynamic Threshold policy (Shan, Jiang, Ren,
// INFOCOM'15), a related-work baseline (§7): DT augmented with burst
// tolerance. EDT tracks whether a queue is in a transient burst (it
// recently turned active) and temporarily exempts such queues from the
// DT limit up to a dedicated headroom, improving micro-burst absorption
// without preemption.
//
// This implementation keeps EDT's published control structure in a
// simulator-friendly form: a queue that was empty within BurstWindow is
// "bursting" and may use up to BurstHeadroom · FreeBuffer beyond the DT
// threshold; once the window expires the plain DT limit applies again.
type EDT struct {
	// Alpha is the underlying DT parameter.
	Alpha float64
	// BurstHeadroom is the extra fraction of free buffer a bursting
	// queue may take (default 0.5 when zero).
	BurstHeadroom float64
	// BurstWindowNs is how long after activation a queue counts as
	// bursting, in virtual nanoseconds (default 100µs when zero).
	BurstWindowNs int64

	// Clock must be set by the embedding switch so the policy can age
	// burst states; it returns the current virtual time in ns.
	Clock func() int64

	activeSince map[int]int64 // queue -> activation time
}

// NewEDT returns an EDT policy.
func NewEDT(alpha float64, clock func() int64) *EDT {
	return &EDT{
		Alpha:       alpha,
		Clock:       clock,
		activeSince: make(map[int]int64),
	}
}

// Name implements Policy.
func (p *EDT) Name() string { return "EDT" }

func (p *EDT) headroom() float64 {
	if p.BurstHeadroom == 0 {
		return 0.5
	}
	return p.BurstHeadroom
}

func (p *EDT) window() int64 {
	if p.BurstWindowNs == 0 {
		return 100_000 // 100µs
	}
	return p.BurstWindowNs
}

// bursting reports whether queue q is newly active: an empty queue is
// always (re)activating — the next packet starts a burst — and a
// non-empty queue stays in burst state until the window expires.
func (p *EDT) bursting(st State, q int) bool {
	now := int64(0)
	if p.Clock != nil {
		now = p.Clock()
	}
	if st.QueueLen(q) == 0 {
		p.activeSince[q] = now
		return true
	}
	since, ok := p.activeSince[q]
	return ok && now-since <= p.window()
}

// Threshold implements Policy.
func (p *EDT) Threshold(st State, q int) int {
	base := float64(p.Alpha * float64(FreeBuffer(st)))
	if p.bursting(st, q) {
		base += float64(p.headroom() * float64(FreeBuffer(st)))
	}
	return clampInt(base)
}

// Admit implements Policy.
func (p *EDT) Admit(st State, q, size int) bool {
	if FreeBuffer(st) < size {
		return false
	}
	return st.QueueLen(q) < p.Threshold(st, q)
}
