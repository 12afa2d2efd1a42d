package hw

import "math"

// MaxFinder is the binary comparator tree of Fig 4: the circuit classic
// Pushout needs to track the longest queue in real time. The functional
// model reproduces the tree's exact tie-breaking (an a>b multiplexer
// selects b on ties, so the *later* input wins equal comparisons), and
// the cost model reproduces why the paper rejects it: O(k·N) gates are
// fine, but O(log₂k · log₂N) delay cannot keep up with per-cycle queue
// length changes.
type MaxFinder struct {
	n   int
	k   int    // bit width of each compared value
	row []cand // Find's working row
}

// cand is one value travelling up the tree with the input it came from.
type cand struct{ idx, v int }

// NewMaxFinder returns a comparator tree over n inputs of k bits each.
func NewMaxFinder(n, k int) *MaxFinder {
	if n <= 0 || k <= 0 {
		panic("hw: max finder needs positive n and k")
	}
	return &MaxFinder{n: n, k: k, row: make([]cand, n)}
}

// Find returns the index of the maximum value, evaluated exactly as the
// binary comparator tree would: pairwise a>b muxes, later index on ties.
// Each level is folded over the front of the one working row — pair i
// lands at i/2, behind the read position — so a call allocates nothing.
func (m *MaxFinder) Find(values []int) int {
	if len(values) != m.n {
		panicSize()
	}
	row := m.row
	for i, v := range values {
		row[i] = cand{i, v}
	}
	for n := len(row); n > 1; n = (n + 1) / 2 {
		for i := 0; i+1 < n; i += 2 {
			a, b := row[i], row[i+1]
			if a.v > b.v { // mux selects a only on strict greater
				b = a
			}
			row[i/2] = b
		}
		if n%2 == 1 {
			row[n/2] = row[n-1]
		}
	}
	return row[0].idx
}

//go:noinline
func panicSize() { panic("hw: max finder input size mismatch") }

// Levels returns the comparator-tree depth ⌈log₂N⌉.
func (m *MaxFinder) Levels() int {
	return int(math.Ceil(math.Log2(float64(m.n))))
}

// Comparators returns the number of CMP+MUX nodes (N−1).
func (m *MaxFinder) Comparators() int { return m.n - 1 }

// Gates estimates total gate count, O(k·N) as stated in §2.2.
func (m *MaxFinder) Gates() int {
	// Each CMP+MUX node is ~6 gates per bit (ripple comparator cell plus
	// a 2:1 mux bit).
	return m.Comparators() * m.k * 6
}

// DelayNs estimates the combinational delay in nanoseconds at 45nm:
// each tree level costs a k-bit compare, itself a log₂k-depth structure.
// This is the O(log₂k × log₂N) term that rules the circuit out for
// per-cycle use in a multi-GHz traffic manager.
func (m *MaxFinder) DelayNs() float64 {
	perStage := 0.08 // ns per logic level at 45nm (typical FO4-ish)
	cmpDepth := math.Ceil(math.Log2(float64(m.k))) + 1
	return float64(m.Levels()) * cmpDepth * perStage
}

// MeetsCycleTime reports whether the finder settles within one clock
// cycle at the given frequency (GHz). Table/figure discussions assume a
// 1GHz traffic manager.
func (m *MaxFinder) MeetsCycleTime(ghz float64) bool {
	return m.DelayNs() <= 1.0/ghz
}
