// Package workload generates the traffic the paper evaluates with:
// web-search-distributed background flows arriving as a Poisson process,
// incast query traffic, long-lived flows and microbursts for the testbed
// scenarios, and the AI patterns (all-to-all, all-reduce over a double
// binary tree).
package workload

import "occamy/internal/sim"

// CDF is a piecewise-linear flow-size distribution: points of
// (size, cumulative probability), non-decreasing in both coordinates,
// ending at probability 1.
type CDF struct {
	points []CDFPoint
}

// CDFPoint is one knot of the distribution.
type CDFPoint struct {
	Size float64 // bytes
	Cum  float64
}

// NewCDF validates and builds a distribution.
func NewCDF(points []CDFPoint) *CDF {
	if len(points) < 2 {
		panic("workload: CDF needs at least two points")
	}
	for i := 1; i < len(points); i++ {
		if points[i].Size < points[i-1].Size || points[i].Cum < points[i-1].Cum {
			panic("workload: CDF points must be non-decreasing")
		}
	}
	if points[len(points)-1].Cum != 1 {
		panic("workload: CDF must end at probability 1")
	}
	return &CDF{points: points}
}

// WebSearch is the DCTCP-paper web-search flow-size distribution used
// throughout the paper's evaluation (§6.2, §6.4): mostly small flows
// with a heavy tail to 30MB.
func WebSearch() *CDF {
	return NewCDF([]CDFPoint{
		{0, 0},
		{10_000, 0.15},
		{20_000, 0.20},
		{30_000, 0.30},
		{50_000, 0.40},
		{80_000, 0.53},
		{200_000, 0.60},
		{1_000_000, 0.70},
		{2_000_000, 0.80},
		{5_000_000, 0.90},
		{10_000_000, 0.97},
		{30_000_000, 1.00},
	})
}

// CacheFollower is the cache-follower flow-size distribution measured in
// Facebook's datacenters (Roy et al., SIGCOMM'15, as redrawn by the ABM
// and Homa evaluations): dominated by sub-MTU object reads with a thin
// tail into the hundreds of kilobytes. Mixed with WebSearch it produces
// the bimodal "mixed load" scenarios the paper does not cover.
func CacheFollower() *CDF {
	return NewCDF([]CDFPoint{
		{0, 0},
		{300, 0.30},
		{600, 0.50},
		{1_000, 0.70},
		{2_000, 0.80},
		{5_000, 0.90},
		{50_000, 0.97},
		{500_000, 1.00},
	})
}

// Uniform returns a degenerate distribution of one fixed size.
func Uniform(size int64) *CDF {
	return NewCDF([]CDFPoint{{float64(size), 0}, {float64(size), 1}})
}

// Sample draws a flow size (>= 1 byte).
func (c *CDF) Sample(r *sim.Rand) int64 {
	u := r.Float64()
	pts := c.points
	// Find the segment containing u and interpolate linearly.
	for i := 1; i < len(pts); i++ {
		if u <= pts[i].Cum {
			lo, hi := pts[i-1], pts[i]
			if hi.Cum == lo.Cum {
				return clamp1(int64(hi.Size))
			}
			frac := (u - lo.Cum) / (hi.Cum - lo.Cum)
			return clamp1(int64(lo.Size + float64(frac*(hi.Size-lo.Size))))
		}
	}
	return clamp1(int64(pts[len(pts)-1].Size))
}

// Mean returns the distribution's expected size in bytes.
func (c *CDF) Mean() float64 {
	pts := c.points
	total := 0.0
	for i := 1; i < len(pts); i++ {
		p := pts[i].Cum - pts[i-1].Cum
		total += float64(p * (pts[i].Size + pts[i-1].Size) / 2)
	}
	return total
}

func clamp1(v int64) int64 {
	if v < 1 {
		return 1
	}
	return v
}
