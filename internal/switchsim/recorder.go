package switchsim

import (
	"math"

	"occamy/internal/sim"
)

// Recorder tracks one switch's shared-buffer occupancy dynamics over a
// run, at three depths: the whole-switch occupancy time series, the
// per-port occupancy series, and — one level further down — the
// per-(port,class) queue series with the admission policy's threshold
// sampled alongside (the Fig 3/11-style occupancy-vs-threshold view).
// Peaks and means are kept per switch, per port, and per queue. The
// caller drives it — typically one scenario-level ticker calls Sample
// on every recorder at a fixed period, so the samples of all switches
// in a fabric are aligned in time.
type Recorder struct {
	sw *Switch

	// Series is the whole-switch occupancy in bytes, one entry per
	// Sample call; Times holds the matching timestamps.
	Series []float64
	Times  []sim.Time
	// PortSeries[i] is port i's occupancy in bytes at the same instants.
	PortSeries [][]float64
	// QueueSeries[q] is queue q's length in bytes (flat index
	// port*ClassesPerPort+class); ThresholdSeries[q] is the admission
	// policy's instantaneous limit for q at the same instants, clamped
	// to the buffer capacity (unbounded policies report Capacity, and a
	// DT threshold over an empty buffer can exceed it many times over —
	// the clamp keeps the overlay on the occupancy scale).
	QueueSeries     [][]float64
	ThresholdSeries [][]float64
	// ECNSeries[q] is queue q's cumulative ECN-mark counter at the same
	// instants: the marking dynamics behind a DCTCP run (a flat segment
	// is a quiet queue, a steep one a marking burst).
	ECNSeries [][]float64

	peak        int
	sum         float64
	portPeak    []int
	portSum     []float64
	queuePeak   []int
	queueSum    []float64
	minHeadroom []int
	n           int
}

// NewRecorder attaches a recorder to a switch. Its series grow by
// append; a caller that knows the sample count calls Reserve first.
func NewRecorder(sw *Switch) *Recorder {
	r := &Recorder{
		sw:              sw,
		PortSeries:      make([][]float64, sw.NumPorts()),
		QueueSeries:     make([][]float64, sw.NumQueues()),
		ThresholdSeries: make([][]float64, sw.NumQueues()),
		ECNSeries:       make([][]float64, sw.NumQueues()),
		portPeak:        make([]int, sw.NumPorts()),
		portSum:         make([]float64, sw.NumPorts()),
		queuePeak:       make([]int, sw.NumQueues()),
		queueSum:        make([]float64, sw.NumQueues()),
		minHeadroom:     make([]int, sw.NumQueues()),
	}
	for q := range r.minHeadroom {
		r.minHeadroom[q] = math.MaxInt
	}
	return r
}

// Reserve sizes a recorder that has not sampled yet for n samples: every
// series is carved out of one slab (and Times out of one array), so a
// run whose sample count is known up front — horizon / period + 1 for a
// fixed-period sampler — records without growing a slice. Each series is
// a three-index slice capped at its own n slots: sampling past the
// reservation reallocates that series by append and never writes into
// its neighbour, so n is a hint and may be less than the run takes.
func (r *Recorder) Reserve(n int) {
	r.Times = make([]sim.Time, 0, n)
	slab := make([]float64, n*(1+len(r.PortSeries)+3*len(r.QueueSeries)))
	carve := func() []float64 {
		s := slab[0:0:n]
		slab = slab[n:]
		return s
	}
	r.Series = carve()
	for i := range r.PortSeries {
		r.PortSeries[i] = carve()
	}
	for q := range r.QueueSeries {
		r.QueueSeries[q] = carve()
		r.ThresholdSeries[q] = carve()
		r.ECNSeries[q] = carve()
	}
}

// Switch returns the recorded switch.
func (r *Recorder) Switch() *Switch { return r.sw }

// Sample records the switch's current occupancy (whole-switch,
// per-port, and per-queue with the policy threshold) at the given
// timestamp.
func (r *Recorder) Sample(now sim.Time) {
	occ := r.sw.Occupancy()
	r.Series = append(r.Series, float64(occ))
	r.Times = append(r.Times, now)
	if occ > r.peak {
		r.peak = occ
	}
	r.sum += float64(occ)
	for i := range r.portPeak {
		p := r.sw.PortOccupancy(i)
		r.PortSeries[i] = append(r.PortSeries[i], float64(p))
		if p > r.portPeak[i] {
			r.portPeak[i] = p
		}
		r.portSum[i] += float64(p)
	}
	capacity := r.sw.Capacity()
	for q := range r.queuePeak {
		l := r.sw.QueueLen(q)
		thr := r.sw.Threshold(q)
		if thr > capacity {
			thr = capacity
		}
		r.QueueSeries[q] = append(r.QueueSeries[q], float64(l))
		r.ThresholdSeries[q] = append(r.ThresholdSeries[q], float64(thr))
		r.ECNSeries[q] = append(r.ECNSeries[q], float64(r.sw.QueueStats(q).ECNMarked))
		if l > r.queuePeak[q] {
			r.queuePeak[q] = l
		}
		r.queueSum[q] += float64(l)
		if h := thr - l; h < r.minHeadroom[q] {
			r.minHeadroom[q] = h
		}
	}
	r.n++
}

// Samples returns the number of Sample calls so far.
func (r *Recorder) Samples() int { return r.n }

// Peak returns the highest sampled whole-switch occupancy in bytes.
func (r *Recorder) Peak() int { return r.peak }

// Mean returns the average sampled whole-switch occupancy in bytes.
func (r *Recorder) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// PortPeak returns the highest sampled occupancy of port i in bytes.
func (r *Recorder) PortPeak(i int) int { return r.portPeak[i] }

// PortMean returns the average sampled occupancy of port i in bytes.
func (r *Recorder) PortMean(i int) float64 {
	if r.n == 0 {
		return 0
	}
	return r.portSum[i] / float64(r.n)
}

// QueuePeak returns the highest sampled length of queue q in bytes.
func (r *Recorder) QueuePeak(q int) int { return r.queuePeak[q] }

// QueueMean returns the average sampled length of queue q in bytes.
func (r *Recorder) QueueMean(q int) float64 {
	if r.n == 0 {
		return 0
	}
	return r.queueSum[q] / float64(r.n)
}

// QueueMinHeadroom returns the smallest sampled gap between the policy
// threshold (capacity-clamped) and queue q's length, in bytes. Negative
// while the queue sat over its threshold — exactly the over-allocation
// a preemptive policy expels. Zero before any sample.
func (r *Recorder) QueueMinHeadroom(q int) int {
	if r.n == 0 {
		return 0
	}
	return r.minHeadroom[q]
}
