package bm_test

// Table-driven invariant suite over every BM policy in the repository.
//
// Shape tests pin what each policy does on a specific workload; this
// suite pins what NO policy may ever do, so the guarantees survive as
// scenarios multiply:
//
//  1. admission never oversubscribes the buffer: Admit(size) implies the
//     packet physically fits, so occupancy can never exceed Capacity;
//  2. thresholds are monotone in free buffer: growing another queue
//     (shrinking F = B − Q) never raises a queue's threshold;
//  3. thresholds are non-negative and capacity-bounded under randomized
//     states.
//
// Every policy runs through the same harness; a new policy buys into the
// suite by being added to allPolicies.

import (
	"testing"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/sim"
)

// fakeState is a scripted bm.State.
type fakeState struct {
	cap    int
	queues []int
	prios  []int
	rates  []float64
}

func (s *fakeState) Capacity() int { return s.cap }
func (s *fakeState) Occupancy() int {
	total := 0
	for _, q := range s.queues {
		total += q
	}
	return total
}
func (s *fakeState) NumQueues() int     { return len(s.queues) }
func (s *fakeState) QueueLen(q int) int { return s.queues[q] }
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
	for q := range s.queues {
		if s.QueueLen(q) > 0 && s.QueuePriority(q) == c {
			n++
		}
	}
	return n
}

type policyCase struct {
	name string
	mk   func() bm.Policy
}

// allPolicies builds one fresh instance of every admission policy.
func allPolicies() []policyCase {
	clock := func() int64 { return 1_000_000 }
	return []policyCase{
		{"CS", func() bm.Policy { return bm.CompleteSharing{} }},
		{"ST", func() bm.Policy { return bm.StaticThreshold{Limit: 50_000} }},
		{"DT", func() bm.Policy { return bm.NewDT(1) }},
		{"DT(a=8)", func() bm.Policy { return bm.NewDT(8) }},
		{"DT(prio)", func() bm.Policy {
			dt := bm.NewDT(1)
			dt.AlphaByPrio = map[int]float64{0: 8, 1: 1}
			return dt
		}},
		{"ABM", func() bm.Policy { return bm.NewABM(2) }},
		{"EDT", func() bm.Policy { return bm.NewEDT(1, clock) }},
		{"TDT", func() bm.Policy { return bm.NewTDT(1) }},
		{"Occamy", func() bm.Policy { return core.New(core.Config{Alpha: 8}) }},
		{"Occamy-LD", func() bm.Policy { return core.New(core.Config{Alpha: 8, Victim: core.LongestQueue}) }},
		{"Pushout", func() bm.Policy { return core.NewPushout() }},
		{"POT", func() bm.Policy { return core.NewPOT(0.5) }},
		{"QPO", func() bm.Policy { return core.NewQPO() }},
	}
}

// TestAdmissionNeverOversubscribes drives randomized admission sequences
// through every policy: whenever Admit says yes the packet is enqueued,
// and occupancy must never exceed Capacity.
func TestAdmissionNeverOversubscribes(t *testing.T) {
	for _, pc := range allPolicies() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				policy := pc.mk()
				r := sim.NewRand(seed * 1315)
				st := &fakeState{
					cap:    100_000,
					queues: make([]int, 8),
					prios:  []int{0, 0, 1, 1, 0, 0, 1, 1},
					rates:  []float64{1, 0.5, 0.1, 0, 1, 1, 0.8, 0.3},
				}
				for i := 0; i < 4000; i++ {
					q := r.Intn(len(st.queues))
					switch r.Intn(3) {
					case 0, 1: // arrival
						size := 64 + r.Intn(9000)
						if policy.Admit(st, q, size) {
							st.queues[q] += size
						}
						if occ := st.Occupancy(); occ > st.cap {
							t.Fatalf("seed %d op %d: occupancy %d exceeds capacity %d after admit(q=%d)",
								seed, i, occ, st.cap, q)
						}
					case 2: // service
						if st.queues[q] > 0 {
							take := r.Intn(st.queues[q] + 1)
							st.queues[q] -= take
						}
					}
				}
			}
		})
	}
}

// TestThresholdMonotoneInFreeBuffer grows a competing queue step by step
// (free buffer only shrinks) and checks that no policy ever *raises* the
// observed queue's threshold in response. The competing queue sits in a
// different priority class and stays congested throughout, so ABM's
// congested-count and TDT/EDT's per-queue states are constant — the only
// moving input is F = B − Q.
func TestThresholdMonotoneInFreeBuffer(t *testing.T) {
	const observed, filler = 0, 3
	for _, pc := range allPolicies() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			policy := pc.mk()
			st := &fakeState{
				cap:    1_000_000,
				queues: []int{20_000, 0, 0, 10_000},
				prios:  []int{0, 0, 1, 1},
			}
			prev := policy.Threshold(st, observed)
			for step := 0; step < 200; step++ {
				st.queues[filler] += 4_000
				cur := policy.Threshold(st, observed)
				if cur > prev {
					t.Fatalf("step %d: threshold rose %d -> %d as free buffer shrank (occ %d)",
						step, prev, cur, st.Occupancy())
				}
				prev = cur
			}
		})
	}
}

// TestThresholdSanity: randomized states must never produce a negative
// threshold, and a policy that reports a threshold above capacity is
// claiming more than the buffer holds (allowed only for the "unlimited"
// preemptive policies and for DT-family transients, which clamp at
// admission; here we only require non-negativity plus an absolute bound
// well above any plausible transient).
func TestThresholdSanity(t *testing.T) {
	for _, pc := range allPolicies() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			policy := pc.mk()
			r := sim.NewRand(99)
			st := &fakeState{cap: 500_000, queues: make([]int, 6)}
			for i := 0; i < 2000; i++ {
				q := r.Intn(len(st.queues))
				if r.Intn(2) == 0 {
					size := 64 + r.Intn(9000)
					if policy.Admit(st, q, size) {
						st.queues[q] += size
					}
				} else if st.queues[q] > 0 {
					st.queues[q] -= r.Intn(st.queues[q] + 1)
				}
				if th := policy.Threshold(st, q); th < 0 {
					t.Fatalf("negative threshold %d for queue %d", th, q)
				}
			}
		})
	}
}

// TestReservedFractionMatchesThreshold ties the Eq. 2 closed form to the
// implementation: at DT steady state (every congested queue exactly at
// threshold) the free buffer is B/(1+αn).
func TestReservedFractionMatchesThreshold(t *testing.T) {
	const buffer = 1 << 20
	for _, alpha := range []float64{0.5, 1, 2, 8} {
		for n := 1; n <= 4; n++ {
			dt := bm.NewDT(alpha)
			st := &fakeState{cap: buffer, queues: make([]int, 8)}
			q := bm.SteadyStateQueueLen(alpha, n, buffer)
			for i := 0; i < n; i++ {
				st.queues[i] = q
			}
			want := bm.ReservedFraction(alpha, n)
			got := float64(bm.FreeBuffer(st)) / float64(buffer)
			if diff := got - want; diff < -0.01 || diff > 0.01 {
				t.Errorf("alpha=%g n=%d: free fraction %.4f, Eq.2 says %.4f", alpha, n, got, want)
			}
			// And the threshold at that state equals the queue length
			// (steady state: marginally admissible), within the integer
			// truncation error accumulated across n queues.
			th := dt.Threshold(st, 0)
			slack := int(alpha)*n + n + 2
			if th < q-slack || th > q+slack {
				t.Errorf("alpha=%g n=%d: threshold %d far from steady-state length %d", alpha, n, th, q)
			}
		}
	}
}
