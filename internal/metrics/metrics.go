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

func (c *Collector) fcts() []float64 {
	v := make([]float64, len(c.samples))
	for i, s := range c.samples {
		v[i] = s.FCT.Seconds()
	}
	return v
}

func (c *Collector) slowdowns() []float64 {
	v := make([]float64, 0, len(c.samples))
	for _, s := range c.samples {
		if s.Slowdown > 0 {
			v = append(v, s.Slowdown)
		}
	}
	return v
}

// MeanFCT returns the average completion time.
func (c *Collector) MeanFCT() sim.Duration {
	v := c.fcts()
	if len(v) == 0 {
		return 0
	}
	return sim.Duration(Mean(v) * float64(sim.Second))
}

// P99FCT returns the 99th-percentile completion time.
func (c *Collector) P99FCT() sim.Duration {
	v := c.fcts()
	if len(v) == 0 {
		return 0
	}
	return sim.Duration(Percentile(v, 0.99) * float64(sim.Second))
}

// MeanSlowdown returns the average slowdown across samples with ideals.
func (c *Collector) MeanSlowdown() float64 { return Mean(c.slowdowns()) }

// P99Slowdown returns the 99th-percentile slowdown.
func (c *Collector) P99Slowdown() float64 { return Percentile(c.slowdowns(), 0.99) }

// FCTQuantile returns the q-quantile (0..1) completion time.
func (c *Collector) FCTQuantile(q float64) sim.Duration {
	if len(c.samples) == 0 {
		return 0
	}
	return sim.Duration(Percentile(c.fcts(), q) * float64(sim.Second))
}

// SlowdownQuantile returns the q-quantile (0..1) slowdown across
// samples with ideals; 0 when none have one.
func (c *Collector) SlowdownQuantile(q float64) float64 {
	return Percentile(c.slowdowns(), q)
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
	// QuantileRow/TailRows.
	FCT      []sim.Duration
	Slowdown []float64
}

// QuantileRow reduces the collector to one labeled row of quantiles.
// The populations are extracted and sorted once, not per quantile.
func (c *Collector) QuantileRow(label string, qs []float64) QuantileRow {
	fcts, slows := c.fcts(), c.slowdowns()
	sort.Float64s(fcts)
	sort.Float64s(slows)
	r := QuantileRow{
		Label:    label,
		Count:    len(c.samples),
		FCT:      make([]sim.Duration, len(qs)),
		Slowdown: make([]float64, len(qs)),
	}
	for i, q := range qs {
		r.FCT[i] = sim.Duration(percentileSorted(fcts, q) * float64(sim.Second))
		r.Slowdown[i] = percentileSorted(slows, q)
	}
	return r
}

// TailRows renders the standard tail breakdown: an "all" row over every
// sample, then one row per size bucket (boundaries ascending, in
// bytes). Empty buckets are kept with Count 0 so table shapes are
// stable across runs.
func (c *Collector) TailRows(bounds []int64, qs []float64) []QuantileRow {
	rows := []QuantileRow{c.QuantileRow("all", qs)}
	prev := int64(0)
	for _, hi := range bounds {
		lo, hi := prev, hi
		sub := c.Filter(func(s Sample) bool { return s.Size >= lo && s.Size < hi })
		rows = append(rows, sub.QuantileRow(sizeRange(lo, hi), qs))
		prev = hi
	}
	if len(bounds) > 0 {
		last := bounds[len(bounds)-1]
		sub := c.Filter(func(s Sample) bool { return s.Size >= last })
		rows = append(rows, sub.QuantileRow(">="+sizeLabel(last), qs))
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

// CDFPoint is one point of an empirical distribution dump.
type CDFPoint struct {
	Value float64
	Cum   float64
}

// EmpiricalCDF returns the sorted values annotated with cumulative
// probability — the Fig 7 output format.
func EmpiricalCDF(v []float64) []CDFPoint {
	if len(v) == 0 {
		return nil
	}
	s := make([]float64, len(v))
	copy(s, v)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, x := range s {
		out[i] = CDFPoint{Value: x, Cum: float64(i+1) / float64(len(s))}
	}
	return out
}

// CDFQuantiles reduces an empirical CDF to fixed quantiles for compact
// table output.
func CDFQuantiles(v []float64, qs ...float64) []CDFPoint {
	out := make([]CDFPoint, len(qs))
	for i, q := range qs {
		out[i] = CDFPoint{Value: Percentile(v, q), Cum: q}
	}
	return out
}
