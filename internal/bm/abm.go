package bm

// ABM is Active Buffer Management (Addanki, Apostolaki, Ghobadi, Schmid,
// Vanbever — SIGCOMM'22), the strongest non-preemptive baseline in the
// paper. ABM scales DT's threshold by (a) the number of congested queues
// in the same priority class and (b) the queue's normalized drain rate:
//
//	T_i(t) = α_p / n_p(t) · (B − ΣQ(t)) · μ_i(t)
//
// where n_p ≥ 1 counts the congested (non-empty) queues in class p and
// μ_i ∈ [0,1] is queue i's dequeue rate relative to its port capacity.
// Slow-draining queues therefore get small thresholds, which bounds
// buffer drain time — but the scheme remains non-preemptive: it cannot
// reclaim buffer a queue already holds (the root of the buffer-choking
// result in Fig 15).
type ABM struct {
	// Alpha is α_p for every priority class unless overridden.
	Alpha float64
	// AlphaByPrio optionally overrides α per priority class.
	AlphaByPrio map[int]float64
	// MinRate floors μ_i so that a paused queue still gets a sliver of
	// buffer and can restart. Default 0.01 when zero.
	MinRate float64
}

// NewABM returns an ABM policy with uniform α.
func NewABM(alpha float64) *ABM { return &ABM{Alpha: alpha} }

// Name implements Policy.
func (p *ABM) Name() string { return "ABM" }

// ReadsDequeueRate marks ABM as a reader of State.DequeueRate, which
// makes the switch keep its per-queue drain meters.
func (*ABM) ReadsDequeueRate() {}

func (p *ABM) minRate() float64 {
	if p.MinRate == 0 {
		return 0.01
	}
	return p.MinRate
}

// Threshold implements Policy.
func (p *ABM) Threshold(st State, q int) int {
	prio := st.QueuePriority(q)
	np := max(st.BackloggedInClass(prio), 1)
	mu := st.DequeueRate(q)
	if mu < p.minRate() {
		mu = p.minRate()
	}
	if mu > 1 {
		mu = 1
	}
	t := alphaOf(prio, p.Alpha, p.AlphaByPrio) / float64(np) * float64(FreeBuffer(st)) * mu
	return clampInt(t)
}

// Admit implements Policy.
func (p *ABM) Admit(st State, q, size int) bool {
	if FreeBuffer(st) < size {
		return false
	}
	return st.QueueLen(q) < p.Threshold(st, q)
}
