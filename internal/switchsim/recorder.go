package switchsim

import (
	"math"

	"occamy/internal/sim"
)

// Recorder tracks one switch's shared-buffer occupancy dynamics over a
// run: the whole-switch occupancy time series and, one level down, the
// per-(port,class) queue series with the admission policy's threshold
// sampled alongside (the Fig 3/11-style occupancy-vs-threshold view).
// Peaks and means are kept per switch, per port, and per queue. The
// caller drives it — typically one scenario-level ticker calls Sample
// on every recorder at a fixed period, so the samples of all switches
// in a fabric are aligned in time.
//
// Each distinct series is stored once. Under a bm.ClassPolicy the
// threshold is one series per class, asked once per sample. A queue's
// occupancy or ECN series is kept only from its first non-zero value;
// until then it reads as the recorder's one series of zeros. The series
// the accessors return may therefore be shared, and are read-only.
type Recorder struct {
	sw *Switch

	// Series is the whole-switch occupancy in bytes, one entry per
	// Sample call; Times holds the matching timestamps.
	Series []float64
	Times  []sim.Time

	queue, ecn [][]float64 // per queue; nil while every value so far is 0
	thr        [][]float64 // per class under a class policy, else per queue
	thrNow     []int       // this sample's threshold of each class of a port
	zero       []float64   // one 0 per sample: what a nil series reads as

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
	thresholds := sw.NumQueues()
	if sw.classPol != nil {
		thresholds = sw.ClassesPerPort()
	}
	r := &Recorder{
		sw:          sw,
		queue:       make([][]float64, sw.NumQueues()),
		ecn:         make([][]float64, sw.NumQueues()),
		thr:         make([][]float64, thresholds),
		thrNow:      make([]int, sw.ClassesPerPort()),
		portPeak:    make([]int, sw.NumPorts()),
		portSum:     make([]float64, sw.NumPorts()),
		queuePeak:   make([]int, sw.NumQueues()),
		queueSum:    make([]float64, sw.NumQueues()),
		minHeadroom: make([]int, sw.NumQueues()),
	}
	for q := range r.minHeadroom {
		r.minHeadroom[q] = math.MaxInt
	}
	return r
}

// Reserve sizes a recorder that has not sampled yet for n samples: the
// switch, zero and threshold series are carved out of one slab (and
// Times out of one array), and a queue series kept from its first
// non-zero value is made with room for n, so a run whose sample count is
// known up front — horizon / period + 1 for a fixed-period sampler —
// records without growing a slice. Each series is capped at its own n
// slots: sampling past the reservation reallocates that series by append
// and never writes into its neighbour, so n is a hint.
func (r *Recorder) Reserve(n int) {
	r.Times = make([]sim.Time, 0, n)
	slab := make([]float64, n*(2+len(r.thr)))
	carve := func() []float64 {
		s := slab[0:0:n]
		slab = slab[n:]
		return s
	}
	r.Series, r.zero = carve(), carve()
	for i := range r.thr {
		r.thr[i] = carve()
	}
}

// Sample records the switch's current occupancy (whole-switch,
// per-port, and per-queue with the policy threshold) at the given
// timestamp.
func (r *Recorder) Sample(now sim.Time) {
	sw := r.sw
	occ := sw.Occupancy()
	r.Series = append(r.Series, float64(occ))
	r.Times = append(r.Times, now)
	r.zero = append(r.zero, 0)
	r.peak = max(r.peak, occ)
	r.sum += float64(occ)
	q := 0
	for p := range r.portPeak {
		portOcc := 0
		for c, thr := range r.thrNow {
			l := sw.QueueLen(q)
			// Under a class policy only port 0's queues, one of each class,
			// are asked: their thresholds are their classes'.
			if q < len(r.thr) {
				thr = min(sw.policy.Threshold(sw, q), sw.Capacity())
				r.thr[q] = append(r.thr[q], float64(thr))
				r.thrNow[c] = thr
			}
			r.grow(&r.queue[q], float64(l))
			r.grow(&r.ecn[q], float64(sw.queueStats[q].ECNMarked))
			r.queuePeak[q] = max(r.queuePeak[q], l)
			r.queueSum[q] += float64(l)
			r.minHeadroom[q] = min(r.minHeadroom[q], thr-l)
			portOcc += l
			q++
		}
		r.portPeak[p] = max(r.portPeak[p], portOcc)
		r.portSum[p] += float64(portOcc)
	}
	r.n++
}

// grow appends v to *s, a series kept from its first non-zero value: nil
// stays nil, and untouched, while v is 0.
func (r *Recorder) grow(s *[]float64, v float64) {
	if *s == nil {
		if v == 0 {
			return
		}
		*s = r.materialize()
	}
	*s = append(*s, v)
}

// materialize returns the zeros sampled so far as a series of its own,
// out of line so that Sample has no allocation site.
//
//go:noinline
func (r *Recorder) materialize() []float64 {
	return make([]float64, r.n, cap(r.zero))
}

// QueueSeries returns queue q's sampled length in bytes (flat index
// port*ClassesPerPort+class), one entry per Sample call.
func (r *Recorder) QueueSeries(q int) []float64 { return r.orZero(r.queue[q]) }

// ThresholdSeries returns the admission policy's limit for queue q at
// the same instants, clamped to the buffer capacity (unbounded policies
// report Capacity, and a DT threshold over an empty buffer can exceed it
// many times over). Under a class policy, every queue of a class returns
// its class's one series: queue q is of class q mod ClassesPerPort.
func (r *Recorder) ThresholdSeries(q int) []float64 { return r.thr[q%len(r.thr)] }

// ECNSeries returns queue q's cumulative ECN-mark counter at the same
// instants (a flat segment is a quiet queue, a steep one a marking burst).
func (r *Recorder) ECNSeries(q int) []float64 { return r.orZero(r.ecn[q]) }

func (r *Recorder) orZero(s []float64) []float64 {
	if s == nil {
		return r.zero
	}
	return s
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
