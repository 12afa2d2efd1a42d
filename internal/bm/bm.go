// Package bm defines the buffer-management (BM) policy framework and the
// non-preemptive baselines the Occamy paper evaluates against: Complete
// Sharing, Static Threshold, Dynamic Threshold (DT, Choudhury–Hahne), and
// ABM (Addanki et al., SIGCOMM'22).
//
// A BM policy answers one question on every packet arrival: may this
// packet enter its destination queue? Non-preemptive policies answer only
// that question. Preemptive policies (Occamy, Pushout — see
// internal/core) additionally expel packets that are already buffered.
package bm

import "math"

// State is the live view of switch statistics a policy consults. It is
// implemented by the traffic manager in internal/switchsim.
type State interface {
	// Capacity is the shared buffer size B in bytes.
	Capacity() int
	// Occupancy is the total buffered bytes across all queues.
	Occupancy() int
	// NumQueues is the number of queues sharing the buffer.
	NumQueues() int
	// QueueLen is the length of queue q in bytes.
	QueueLen(q int) int
	// QueuePriority is the service priority class of queue q (0 =
	// highest).
	QueuePriority(q int) int
	// BackloggedInClass is the number of non-empty queues of priority c,
	// kept by the traffic manager as queues fill and empty. Only ABM
	// consults it (as n_p).
	BackloggedInClass(c int) int
	// DequeueRate is queue q's recent drain rate normalized to its port
	// capacity, in [0,1]. Only ABM consults it, and a policy that does
	// must say so with a ReadsDequeueRate() marker method: the switch
	// keeps the per-queue drain meters only for such a policy and panics
	// when any other one asks.
	DequeueRate(q int) float64
}

// Policy decides packet admission.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Admit reports whether a packet of size bytes may enter queue q.
	// It must not mutate switch state.
	Admit(st State, q int, size int) bool
	// Threshold returns the instantaneous queue-length limit the policy
	// applies to queue q, in bytes. Policies without a meaningful
	// threshold return Capacity.
	Threshold(st State, q int) int
}

// ClassPolicy is a Policy whose limit depends only on a queue's class and
// the switch state: Threshold(st, q) is ClassThreshold(st,
// st.QueuePriority(q)). The switch asks such a policy once per class, not
// once per queue (Occamy's comparator bank, the occupancy recorder).
type ClassPolicy interface {
	Policy
	ClassThreshold(st State, class int) int
}

// Unlimited is the threshold value meaning "no limit beyond physical
// capacity".
func Unlimited(st State) int { return st.Capacity() }

// FreeBuffer returns B - Q(t), the unallocated shared buffer.
func FreeBuffer(st State) int {
	f := st.Capacity() - st.Occupancy()
	if f < 0 {
		return 0
	}
	return f
}

// clampInt converts a float threshold to a non-negative int, saturating
// at MaxInt to avoid overflow when alpha is huge.
func clampInt(v float64) int {
	if v < 0 {
		return 0
	}
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(v)
}

// CompleteSharing admits every packet while any buffer remains. It is
// maximally efficient and minimally fair: one queue can take everything.
type CompleteSharing struct{}

// Name implements Policy.
func (CompleteSharing) Name() string { return "CS" }

// Admit implements Policy: accept whenever the packet physically fits.
func (CompleteSharing) Admit(st State, q, size int) bool {
	return FreeBuffer(st) >= size
}

// Threshold implements Policy.
func (p CompleteSharing) Threshold(st State, q int) int {
	return p.ClassThreshold(st, st.QueuePriority(q))
}

// ClassThreshold implements ClassPolicy.
func (CompleteSharing) ClassThreshold(st State, class int) int { return Unlimited(st) }

// StaticThreshold limits every queue to a fixed byte count (SMXQ-style).
type StaticThreshold struct {
	// Limit is the per-queue cap in bytes.
	Limit int
}

// Name implements Policy.
func (p StaticThreshold) Name() string { return "ST" }

// Admit implements Policy.
func (p StaticThreshold) Admit(st State, q, size int) bool {
	if FreeBuffer(st) < size {
		return false
	}
	return st.QueueLen(q) < p.Limit
}

// Threshold implements Policy.
func (p StaticThreshold) Threshold(st State, q int) int {
	return p.ClassThreshold(st, st.QueuePriority(q))
}

// ClassThreshold implements ClassPolicy.
func (p StaticThreshold) ClassThreshold(st State, class int) int { return p.Limit }
