package metrics

import (
	"math"
	"testing"

	"occamy/internal/sim"
)

// Property tests for the quantile layer: the tail tables are only as
// trustworthy as Percentile, so its invariants are checked over random
// sample sets, not hand-picked vectors.

// randomSamples fills a collector with n random transfers (heavy-tailed
// sizes, exponential FCTs, some without an ideal).
func randomSamples(rng *sim.Rand, n int) *Collector {
	c := &Collector{}
	for i := 0; i < n; i++ {
		size := int64(math.Exp(rng.Float64()*16)) + 1 // ~1B .. ~9MB
		fct := sim.Duration(rng.Exp(2e6)) + 1
		ideal := sim.Duration(0)
		if rng.Float64() < 0.9 {
			ideal = fct/sim.Duration(1+rng.Intn(40)) + 1
		}
		c.Add(size, fct, ideal)
	}
	return c
}

// Percentile must be monotone in q over a dense grid including
// out-of-range values (clamped), with exact extremes at q=0 and q=1 —
// complements the pairwise quick.Check in metrics_test.go.
func TestPercentileMonotoneGrid(t *testing.T) {
	rng := sim.NewRand(7)
	grid := []float64{-0.5, 0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1, 1.5}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*1e6 - 5e5
		}
		prev := math.Inf(-1)
		for _, q := range grid {
			got := Percentile(v, q)
			if got < prev {
				t.Fatalf("trial %d: Percentile not monotone: q=%g gave %g after %g", trial, q, got, prev)
			}
			prev = got
		}
		// Extremes: q=0 is the min, q=1 the max.
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if Percentile(v, 0) != lo || Percentile(v, 1) != hi {
			t.Fatalf("trial %d: extremes wrong: p0=%g want %g, p100=%g want %g",
				trial, Percentile(v, 0), lo, Percentile(v, 1), hi)
		}
	}
}

// The tail ordering the paper's headline claims rest on: on any random
// sample set, p999 >= p99 >= p90 >= p50 >= p25 for both FCTs and
// slowdowns, and the quantile accessors agree with the legacy P99
// helpers exactly.
func TestTailOrdering(t *testing.T) {
	rng := sim.NewRand(42)
	for trial := 0; trial < 100; trial++ {
		c := randomSamples(rng, 1+rng.Intn(2000))
		row := c.TailRows(nil, TailQuantiles)[0]
		for i := 1; i < len(TailQuantiles); i++ {
			if row.FCT[i] < row.FCT[i-1] {
				t.Fatalf("trial %d: FCT quantiles out of order at q=%g: %v", trial, TailQuantiles[i], row.FCT)
			}
			if row.Slowdown[i] < row.Slowdown[i-1] {
				t.Fatalf("trial %d: slowdown quantiles out of order at q=%g: %v", trial, TailQuantiles[i], row.Slowdown)
			}
		}
		if got, want := c.FCTQuantile(0.99), c.P99FCT(); got != want {
			t.Fatalf("trial %d: FCTQuantile(0.99)=%v != P99FCT()=%v", trial, got, want)
		}
		if got, want := c.SlowdownQuantile(0.99), c.P99Slowdown(); got != want {
			t.Fatalf("trial %d: SlowdownQuantile(0.99)=%v != P99Slowdown()=%v", trial, got, want)
		}
	}
}

// TailRows partitions the samples: the size buckets are disjoint and
// exhaustive (counts sum to the "all" row), every bucket's quantiles
// sit inside the global [min, max], and the row labels are stable.
func TestTailRowsPartition(t *testing.T) {
	rng := sim.NewRand(1234)
	for trial := 0; trial < 50; trial++ {
		c := randomSamples(rng, 1+rng.Intn(3000))
		rows := c.TailRows(DefaultSizeBuckets, TailQuantiles)
		if want := 2 + len(DefaultSizeBuckets); len(rows) != want {
			t.Fatalf("got %d rows, want %d", len(rows), want)
		}
		if rows[0].Label != "all" {
			t.Fatalf("first row label %q", rows[0].Label)
		}
		sum := 0
		for _, r := range rows[1:] {
			sum += r.Count
		}
		if sum != rows[0].Count || rows[0].Count != c.Count() {
			t.Fatalf("bucket counts %d do not sum to all=%d (collector %d)", sum, rows[0].Count, c.Count())
		}
		gloMin, gloMax := c.FCTQuantile(0), c.FCTQuantile(1)
		for _, r := range rows[1:] {
			if r.Count == 0 {
				continue
			}
			for i := range r.FCT {
				if r.FCT[i] < gloMin || r.FCT[i] > gloMax {
					t.Fatalf("bucket %q quantile %v outside global range [%v, %v]", r.Label, r.FCT[i], gloMin, gloMax)
				}
			}
		}
	}
	want := []string{"all", "<10KB", "10KB-100KB", "100KB-1MB", ">=1MB"}
	rows := (&Collector{}).TailRows(DefaultSizeBuckets, TailQuantiles)
	for i, r := range rows {
		if r.Label != want[i] {
			t.Fatalf("row %d label %q, want %q", i, r.Label, want[i])
		}
		if r.Count != 0 {
			t.Fatalf("empty collector produced count %d", r.Count)
		}
	}
}

// copyStats is each statistic computed the way the collector once did:
// a fresh filtered copy of the samples per bucket, a fresh value slice per
// statistic, and Percentile's own sorted copy per quantile.
func copyStats(c *Collector, keep func(Sample) bool) (fct, slow []float64, meanFCT, meanSlow float64) {
	var fcts, slows []float64
	for _, s := range c.samples {
		if !keep(s) {
			continue
		}
		fcts = append(fcts, s.FCT.Seconds())
		if s.Slowdown > 0 {
			slows = append(slows, s.Slowdown)
		}
	}
	for _, q := range TailQuantiles {
		fct = append(fct, float64(sim.Duration(Percentile(fcts, q)*float64(sim.Second))))
		slow = append(slow, Percentile(slows, q))
	}
	return fct, slow, Mean(fcts), Mean(slows)
}

// TestStatsMatchCopyPerStatistic holds every tail row and summary
// statistic, now computed in one buffer per call, bit for bit to the
// statistic computed from its own copies.
func TestStatsMatchCopyPerStatistic(t *testing.T) {
	rng := sim.NewRand(99)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 50; trial++ {
		c := randomSamples(rng, rng.Intn(3000))
		buckets := []func(Sample) bool{func(Sample) bool { return true }}
		bounds := append([]int64{0}, DefaultSizeBuckets...)
		for i, lo := range bounds {
			hi := int64(math.MaxInt64)
			if i+1 < len(bounds) {
				hi = bounds[i+1]
			}
			buckets = append(buckets, func(s Sample) bool { return s.Size >= lo && s.Size < hi })
		}
		for i, row := range c.TailRows(DefaultSizeBuckets, TailQuantiles) {
			fct, slow, _, _ := copyStats(c, buckets[i])
			for k := range TailQuantiles {
				if float64(row.FCT[k]) != fct[k] || !same(row.Slowdown[k], slow[k]) {
					t.Fatalf("trial %d row %q q=%g: %v/%v, copies give %v/%v",
						trial, row.Label, TailQuantiles[k], row.FCT[k], row.Slowdown[k], fct[k], slow[k])
				}
			}
		}
		small := func(s Sample) bool { return s.Size < 100_000 }
		for _, x := range []struct {
			c    *Collector
			keep func(Sample) bool
		}{{c, buckets[0]}, {c.Small(100_000), small}} {
			fct, slow, meanFCT, meanSlow := copyStats(c, x.keep)
			if float64(x.c.P99FCT()) != fct[3] || !same(x.c.P99Slowdown(), slow[3]) ||
				float64(x.c.FCTQuantile(0.999)) != fct[4] || !same(x.c.SlowdownQuantile(0.999), slow[4]) ||
				x.c.MeanFCT() != sim.Duration(meanFCT*float64(sim.Second)) || !same(x.c.MeanSlowdown(), meanSlow) {
				t.Fatalf("trial %d: a summary statistic differs from the one computed from copies", trial)
			}
		}
	}
}
