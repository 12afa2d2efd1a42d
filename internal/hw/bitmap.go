// Package hw models the hardware components the Occamy paper builds or
// analyzes: the over-allocation bitmap and round-robin arbiter of the
// head-drop selector (Fig 9), the binary comparator-tree Maximum Finder
// that makes classic Pushout expensive (Fig 4), the dequeue pipeline
// (Fig 10), and an analytic gate-level cost model reproducing Table 1.
// The §4.3 fixed-priority arbiter is costed here but runs as the token
// bucket in internal/core.
//
// The functional models here are cycle-faithful in behaviour (what gets
// granted, in what order) and are used directly by the Occamy expulsion
// engine in internal/core; the cost models are analytic, calibrated to
// the paper's Vivado/45nm numbers (see DESIGN.md substitution table).
package hw

import "math/bits"

// Bitmap is a fixed-width bitset indexed by queue number, mirroring the
// over-allocation bitmap in the head-drop selector: bit i is set while
// queue i's length exceeds the DT threshold.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap returns an all-zero bitmap over n queues.
func NewBitmap(n int) *Bitmap {
	if n <= 0 {
		panic("hw: bitmap size must be positive")
	}
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Size returns the number of queues tracked.
func (b *Bitmap) Size() int { return b.n }

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panicIndex()
	}
}

// The panic lives out of line, so that callers which inline Set, Clear
// and Get (the switch datapath) take no heap-escape diagnostic from it.
//
//go:noinline
func panicIndex() { panic("hw: bitmap index out of range") }

// Set marks queue i.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear unmarks queue i.
func (b *Bitmap) Clear(i int) {
	b.check(i)
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Assign sets or clears bit i according to v — the per-cycle comparator
// output in the selector.
func (b *Bitmap) Assign(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// Get reports whether queue i is marked.
func (b *Bitmap) Get(i int) bool {
	b.check(i)
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Any reports whether any queue is marked.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of marked queues.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset unmarks every queue.
func (b *Bitmap) Reset() { clear(b.words) }

// Next returns the first marked index >= from, or -1 when there is none.
// It does not wrap: `for q := b.Next(0); q >= 0; q = b.Next(q + 1)` visits
// the marked queues in ascending order.
func (b *Bitmap) Next(from int) int {
	if from < 0 || from >= b.n {
		return -1
	}
	// No bit at or above n is ever set, so no word needs a high mask.
	w := from >> 6
	if m := b.words[w] >> (uint(from) & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	for w++; w < len(b.words); w++ {
		if m := b.words[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// NextSet returns the first marked index >= from, searching cyclically
// through all n positions. It reports false when the bitmap is empty.
func (b *Bitmap) NextSet(from int) (int, bool) {
	if from < 0 {
		return 0, false
	}
	i := b.Next(from % b.n)
	if i < 0 {
		i = b.Next(0) // nothing in [from, n): wrap to [0, from)
	}
	return max(i, 0), i >= 0
}
