package bm

// DT is the Dynamic Threshold policy of Choudhury and Hahne — the de
// facto BM in commodity switch chips and the paper's primary baseline.
//
// Every queue is limited to
//
//	T(t) = α · (B − ΣQ(t))
//
// i.e. a multiple of the *free* buffer (Eq. 1 of the paper). A queue may
// accept a packet only while its length is below T(t).
//
// DT is also Occamy's admission component (§4.2): Occamy runs DT with a
// large α (8 by default) and relies on preemptive expulsion to stay fair.
type DT struct {
	// Alpha is the control parameter α. Commodity chips use powers of
	// two; the paper evaluates 0.5–8.
	Alpha float64
	// AlphaByPrio optionally overrides α per service-priority class
	// (e.g. Fig 15 gives the high-priority class α=8 and low-priority
	// classes α=1).
	AlphaByPrio map[int]float64
}

// NewDT returns a DT policy with a uniform α.
func NewDT(alpha float64) *DT { return &DT{Alpha: alpha} }

// Name implements Policy.
func (p *DT) Name() string { return "DT" }

// Threshold implements Policy: T(t) = α·(B − Q(t)).
func (p *DT) Threshold(st State, q int) int { return p.ClassThreshold(st, st.QueuePriority(q)) }

// ClassThreshold implements ClassPolicy with the α of the class. Nothing
// is cached: callers may change the fields between packets.
func (p *DT) ClassThreshold(st State, class int) int {
	return clampInt(alphaOf(class, p.Alpha, p.AlphaByPrio) * float64(FreeBuffer(st)))
}

// alphaOf returns the α that byPrio gives class c, or alpha. An empty map
// costs no lookup, which is the uniform-α policy of most runs.
func alphaOf(c int, alpha float64, byPrio map[int]float64) float64 {
	if len(byPrio) != 0 {
		if a, ok := byPrio[c]; ok {
			return a
		}
	}
	return alpha
}

// Admit implements Policy: accept while the queue is under threshold and
// the packet physically fits.
func (p *DT) Admit(st State, q, size int) bool {
	if FreeBuffer(st) < size {
		return false
	}
	return st.QueueLen(q) < p.Threshold(st, q)
}

// ReservedFraction returns F/B from Eq. 2 of the paper: the fraction of
// the buffer DT holds back in steady state when n queues are congested
// with control parameter alpha:
//
//	F = B / (1 + α·n)
//
// Occamy's efficiency argument (§4.4) rests on this quantity: α=1,n=1
// reserves half the buffer; α=8 reserves 1/9.
func ReservedFraction(alpha float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	return 1 / (1 + alpha*float64(n))
}

// SteadyStateQueueLen returns each congested queue's steady-state length
// under DT: q = α·F = α·B/(1+α·n) with n equally congested queues.
func SteadyStateQueueLen(alpha float64, n int, buffer int) int {
	if n <= 0 {
		return 0
	}
	return clampInt(alpha * float64(buffer) * ReservedFraction(alpha, n))
}

// FairExpulsionAlphaBound returns the largest 1/α (the *reciprocal*
// bound) from Inequality 4 of the paper:
//
//	1/α ≥ ((R/V − 1)·M − N)
//
// where R is the burst arrival rate, V the expulsion rate, M the number
// of burst-receiving queues, and N the number of over-allocated queues.
// A preemptive BM allocates buffer fairly whenever 1/α meets this bound;
// when the right side is ≤ 0, any α is fair.
func FairExpulsionAlphaBound(r, v float64, m, n int) float64 {
	if v <= 0 {
		return float64(m) * 1e18 // no expulsion: only α→0 is safe
	}
	return (r/v-1)*float64(m) - float64(n)
}
