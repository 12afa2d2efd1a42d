package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a concurrency-safe latency histogram with logarithmic
// buckets. Record is lock-free (atomic adds only), so it can sit on hot
// request paths; quantiles are estimated by linear interpolation inside
// the matched bucket, which bounds the relative error by the bucket
// growth factor (~1.5× here — plenty for SLO observability, where the
// question is "is p99 1ms or 100ms", not nanosecond accounting).
//
// The zero value is NOT ready to use; call NewHistogram.
type Histogram struct {
	bounds []time.Duration // upper bound of each bucket, ascending
	counts []atomic.Uint64 // len(bounds)+1: last bucket is overflow
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// histGrowth is the geometric bucket growth factor.
const histGrowth = 1.5

// NewHistogram builds a histogram covering [min, max] with geometric
// buckets. Durations below min land in the first bucket, above max in
// the overflow bucket (whose quantile reports as max).
func NewHistogram(min, max time.Duration) *Histogram {
	if min <= 0 {
		min = time.Microsecond
	}
	if max <= min {
		max = min * 2
	}
	var bounds []time.Duration
	for b := min; b < max; b = time.Duration(float64(b) * histGrowth) {
		bounds = append(bounds, b)
	}
	bounds = append(bounds, max)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// NewLatencyHistogram builds the standard request-latency histogram:
// 10µs resolution up to 10 minutes, sized for HTTP handler and
// submit-to-done times alike.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(10*time.Microsecond, 10*time.Minute)
}

// bucketOf returns the index of the bucket holding d.
func (h *Histogram) bucketOf(d time.Duration) int {
	// Binary search over the ascending bounds.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // == len(bounds) for overflow
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[h.bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the average observation; 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Quantile estimates the q-quantile (0..1). The estimate interpolates
// linearly within the matched bucket; an empty histogram reports 0.
// Concurrent Records may skew a snapshot by the handful of observations
// landing mid-walk — fine for monitoring, which is the intended use.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := float64(q * float64(total))
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank || i == len(h.counts)-1 {
			lo := time.Duration(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[len(h.bounds)-1]
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Buckets snapshots the per-bucket observation counts for exposition.
// It returns the ascending upper bounds (shared, not copied — callers
// must not mutate) and one count per bucket plus a final overflow count,
// so len(counts) == len(bounds)+1. The snapshot is taken bucket-by-
// bucket; concurrent Records may land between loads, which Prometheus
// semantics tolerate (the next scrape catches up).
func (h *Histogram) Buckets() (bounds []time.Duration, counts []uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Sum returns the running total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Snapshot reduces the histogram to the standard SLO summary.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count:  h.count.Load(),
		MeanMs: durMs(h.Mean()),
		P50Ms:  durMs(h.Quantile(0.50)),
		P90Ms:  durMs(h.Quantile(0.90)),
		P99Ms:  durMs(h.Quantile(0.99)),
		P999Ms: durMs(h.Quantile(0.999)),
	}
}

// HistSnapshot is a point-in-time latency summary in milliseconds
// (floats: trivially comparable in CI assertions and jq expressions).
type HistSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// durMs converts to milliseconds, rounded to 3 decimals so JSON output
// stays readable.
func durMs(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Millisecond)*1000) / 1000
}
