// Package metrics collects flow/query completion times and turns them
// into the statistics the paper reports: averages, 99th percentiles, and
// slowdowns (actual completion time over the ideal time the transfer
// would take on an unloaded network).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"occamy/internal/sim"
)

// Sample is one completed transfer.
type Sample struct {
	Size     int64
	FCT      sim.Duration
	Slowdown float64 // FCT / ideal FCT; 0 when no ideal was supplied
}

// Collector accumulates samples. The zero value is ready to use.
type Collector struct {
	samples []Sample
}

// Add records a completion. ideal may be 0 (slowdown then unavailable).
func (c *Collector) Add(size int64, fct, ideal sim.Duration) {
	s := Sample{Size: size, FCT: fct}
	if ideal > 0 {
		s.Slowdown = float64(fct) / float64(ideal)
		if s.Slowdown < 1 {
			s.Slowdown = 1 // measurement noise below ideal clamps to 1
		}
	}
	c.samples = append(c.samples, s)
}

// Count returns the number of samples.
func (c *Collector) Count() int { return len(c.samples) }

// Samples returns the raw samples (not a copy; callers must not mutate).
func (c *Collector) Samples() []Sample { return c.samples }

// Filter returns a new collector holding only samples where keep is true.
func (c *Collector) Filter(keep func(Sample) bool) *Collector {
	out := &Collector{}
	for _, s := range c.samples {
		if keep(s) {
			out.samples = append(out.samples, s)
		}
	}
	return out
}

// Small filters to flows below the given size (the paper's "small
// background flows" are < 100KB).
func (c *Collector) Small(limit int64) *Collector {
	return c.Filter(func(s Sample) bool { return s.Size < limit })
}

// values fills buf, in sample order, with the FCT in seconds (or, when
// slow, the slowdown, which only samples with an ideal have) of each sample
// keep accepts, or of all if keep is nil. It makes a buf that cannot hold
// every sample one that can, so a caller handing it back allocates once.
func (c *Collector) values(buf []float64, slow bool, keep func(Sample) bool) []float64 {
	if cap(buf) < len(c.samples) {
		buf = make([]float64, 0, len(c.samples))
	}
	buf = buf[:0]
	for _, s := range c.samples {
		switch {
		case keep != nil && !keep(s):
		case !slow:
			buf = append(buf, s.FCT.Seconds())
		case s.Slowdown > 0:
			buf = append(buf, s.Slowdown)
		}
	}
	return buf
}

// sorted is values, sorted in place.
func (c *Collector) sorted(buf []float64, slow bool, keep func(Sample) bool) []float64 {
	buf = c.values(buf, slow, keep)
	sort.Float64s(buf)
	return buf
}

// MeanFCT returns the average completion time.
func (c *Collector) MeanFCT() sim.Duration {
	return sim.Duration(Mean(c.values(nil, false, nil)) * float64(sim.Second))
}

// P99FCT returns the 99th-percentile completion time.
func (c *Collector) P99FCT() sim.Duration { return c.FCTQuantile(0.99) }

// MeanSlowdown returns the average slowdown across samples with ideals.
func (c *Collector) MeanSlowdown() float64 { return Mean(c.values(nil, true, nil)) }

// P99Slowdown returns the 99th-percentile slowdown.
func (c *Collector) P99Slowdown() float64 { return c.SlowdownQuantile(0.99) }

// FCTQuantile returns the q-quantile (0..1) completion time.
func (c *Collector) FCTQuantile(q float64) sim.Duration {
	return sim.Duration(percentileSorted(c.sorted(nil, false, nil), q) * float64(sim.Second))
}

// SlowdownQuantile returns the q-quantile (0..1) slowdown across
// samples with ideals; 0 when none have one.
func (c *Collector) SlowdownQuantile(q float64) float64 {
	return percentileSorted(c.sorted(nil, true, nil), q)
}

// Tail tables
//
// The paper's evaluation turns on tail statistics: a mean hides exactly
// the p99/p999 inflation preemptive buffer management is built to fix.
// A QuantileRow is one line of the tail table — a labeled sample
// population with its completion-time and slowdown quantiles — and
// TailRows produces the standard breakdown: all samples first, then one
// row per flow-size bucket.

// TailQuantiles is the standard quantile set of the tail tables.
var TailQuantiles = []float64{0.25, 0.50, 0.90, 0.99, 0.999}

// DefaultSizeBuckets are the flow-size bucket boundaries in bytes:
// <10KB, 10KB–100KB, 100KB–1MB, ≥1MB (the paper's "small" background
// flows are <100KB).
var DefaultSizeBuckets = []int64{10_000, 100_000, 1_000_000}

// QuantileRow is one tail-table line.
type QuantileRow struct {
	Label string
	Count int
	// FCT[i] and Slowdown[i] are the quantiles at qs[i] as passed to
	// TailRows.
	FCT      []sim.Duration
	Slowdown []float64
}

// quantileRow reduces the samples keep accepts to one labeled row of
// quantiles, sorting each population once, in *buf.
func (c *Collector) quantileRow(buf *[]float64, label string, keep func(Sample) bool, qs []float64) QuantileRow {
	r := QuantileRow{
		Label:    label,
		FCT:      make([]sim.Duration, len(qs)),
		Slowdown: make([]float64, len(qs)),
	}
	fcts := c.sorted(*buf, false, keep)
	r.Count = len(fcts) // every sample has an FCT
	for i, q := range qs {
		r.FCT[i] = sim.Duration(percentileSorted(fcts, q) * float64(sim.Second))
	}
	slows := c.sorted(fcts, true, keep)
	for i, q := range qs {
		r.Slowdown[i] = percentileSorted(slows, q)
	}
	*buf = slows
	return r
}

// TailRows renders the standard tail breakdown: an "all" row over every
// sample, then one row per size bucket (boundaries ascending, in
// bytes). Empty buckets are kept with Count 0 so table shapes are
// stable across runs. All rows are computed in one buffer.
func (c *Collector) TailRows(bounds []int64, qs []float64) []QuantileRow {
	var buf []float64
	rows := []QuantileRow{c.quantileRow(&buf, "all", nil, qs)}
	prev := int64(0)
	for _, hi := range bounds {
		lo := prev
		rows = append(rows, c.quantileRow(&buf, sizeRange(lo, hi), func(s Sample) bool { return s.Size >= lo && s.Size < hi }, qs))
		prev = hi
	}
	if len(bounds) > 0 {
		rows = append(rows, c.quantileRow(&buf, ">="+sizeLabel(prev), func(s Sample) bool { return s.Size >= prev }, qs))
	}
	return rows
}

// sizeRange labels a [lo, hi) flow-size bucket.
func sizeRange(lo, hi int64) string {
	if lo == 0 {
		return "<" + sizeLabel(hi)
	}
	return sizeLabel(lo) + "-" + sizeLabel(hi)
}

// sizeLabel renders a byte count compactly (decimal units: 10KB, 1MB).
func sizeLabel(n int64) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dMB", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dKB", n/1_000)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Mean averages v; 0 for empty input.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// Percentile returns the q-quantile (0..1) of v using linear
// interpolation between order statistics. It copies and sorts v.
func Percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := make([]float64, len(v))
	copy(s, v)
	sort.Float64s(s)
	return percentileSorted(s, q)
}

// percentileSorted is Percentile over an already-sorted slice.
func percentileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := float64(q * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}
