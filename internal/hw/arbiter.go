package hw

// RoundRobinArbiter grants one requester per invocation, rotating a
// priority pointer so that every persistent requester is served in turn.
// It is the component labeled ② in Fig 9: it consumes the over-allocation
// bitmap and emits the head-drop queue index.
type RoundRobinArbiter struct {
	n    int
	next int // index that has priority on the next grant
}

// NewRoundRobinArbiter returns an arbiter over n requesters.
func NewRoundRobinArbiter(n int) *RoundRobinArbiter {
	if n <= 0 {
		panic("hw: arbiter size must be positive")
	}
	return &RoundRobinArbiter{n: n}
}

// Grant returns the next requesting index at or after the rotating
// pointer and advances the pointer past it. It reports false when no
// request bit is set.
func (a *RoundRobinArbiter) Grant(req *Bitmap) (int, bool) {
	if req.Size() != a.n {
		panic("hw: bitmap/arbiter size mismatch")
	}
	i, ok := req.NextSet(a.next)
	if !ok {
		return 0, false
	}
	a.next = (i + 1) % a.n
	return i, true
}

// Peek returns the index Grant would return without advancing the pointer.
func (a *RoundRobinArbiter) Peek(req *Bitmap) (int, bool) {
	return req.NextSet(a.next)
}
