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
// until then it reads as the recorder's one series of zeros.
//
// While sampling, every series (Times as float64 bits) is written into
// chunks of chunkLen samples drawn from the run's chunk pool. Chunk k of
// a series holds samples [k·chunkLen, (k+1)·chunkLen), so every series
// crosses a chunk edge at the same sample. Finish copies each distinct
// series once into one slab of exactly its samples. The series and Times
// are read after Finish; they may be shared, and are read-only.
type Recorder struct {
	sw *Switch

	// Series is the whole-switch occupancy in bytes, one entry per
	// Sample call; Times holds the matching timestamps. Finish sets both.
	Series []float64
	Times  []sim.Time

	chunks *chunkPool
	fixed  []series // Times, the switch's, then the thresholds: per class under a class policy, else per queue
	queues []queueRec
	ports  []portRec
	thrNow []int // this sample's threshold of each class of a port

	peak int
	sum  float64
	n    int
	live int // series given a chunk: all but the queues' still nil
}

// series is one series being written: cur is its current chunk, cut to
// the samples of that chunk's span written so far, and id is that chunk;
// from is the sample of its first value. After Finish, cur is the series
// in the slab, or the zero series if it stayed nil.
type series struct {
	cur  []float64
	id   int32
	from int32
}

// queueRec is one queue's series, nil until their first non-zero value,
// and its aggregates.
type queueRec struct {
	occ, ecn          series
	peak, minHeadroom int
	sum               float64
}

type portRec struct {
	peak int
	sum  float64
}

// chunkLen is the number of samples a recorder chunk holds.
const chunkLen = 512

// chunkPool holds a run's recorder chunks: chunk i is v[i], and prev[i] is
// the chunk before it in its series (-1 for the first). Recorders take
// chunks in turn; Park rewinds the pool whole for the next run.
type chunkPool struct {
	v    [][]float64
	prev []int32
	used int
}

// take hands out a chunk that follows chunk prev in its series.
//
//go:noinline
func (c *chunkPool) take(prev int32) int32 {
	if c.used == len(c.v) {
		c.v, c.prev = append(c.v, make([]float64, chunkLen)), append(c.prev, 0)
	}
	c.prev[c.used] = prev
	c.used++
	return int32(c.used - 1)
}

// rewind makes every chunk free again, keeping at most 2^18 floats.
func (c *chunkPool) rewind() *chunkPool {
	if n := 1 << 18 / chunkLen; len(c.v) > n {
		clear(c.v[n:])
		c.v, c.prev = c.v[:n], c.prev[:n]
	}
	c.used = 0
	return c
}

// NewRecorders attaches one recorder to each switch of a run. They draw
// their chunks from one pool: the one the last parked set holds, if any.
func NewRecorders(switches []*Switch) []*Recorder {
	var c *chunkPool
	unpark(func(set *parkedSet) { c, set.chunks = set.chunks, nil })
	if c == nil {
		c = new(chunkPool)
	}
	recs := make([]*Recorder, len(switches))
	for i, sw := range switches {
		recs[i] = newRecorder(sw, c)
	}
	return recs
}

func newRecorder(sw *Switch, c *chunkPool) *Recorder {
	thresholds := sw.NumQueues()
	if sw.classPol != nil {
		thresholds = sw.ClassesPerPort()
	}
	r := &Recorder{
		sw:     sw,
		chunks: c,
		fixed:  make([]series, 2+thresholds),
		queues: make([]queueRec, sw.NumQueues()),
		ports:  make([]portRec, sw.NumPorts()),
		thrNow: make([]int, sw.ClassesPerPort()),
	}
	for i := range r.fixed {
		r.start(&r.fixed[i])
	}
	for q := range r.queues {
		r.queues[q].minHeadroom = math.MaxInt
	}
	return r
}

// Sample records the switch's current occupancy (whole-switch,
// per-port, and per-queue with the policy threshold) at the given
// timestamp.
func (r *Recorder) Sample(now sim.Time) {
	if len(r.fixed[0].cur) == chunkLen {
		r.spill()
	}
	sw := r.sw
	occ := sw.Occupancy()
	r.fixed[0].cur = append(r.fixed[0].cur, math.Float64frombits(uint64(now)))
	r.fixed[1].cur = append(r.fixed[1].cur, float64(occ))
	r.peak = max(r.peak, occ)
	r.sum += float64(occ)
	thrs := r.fixed[2:]
	q := 0
	for p := range r.ports {
		portOcc := 0
		for c, thr := range r.thrNow {
			l := sw.QueueLen(q)
			// Under a class policy only port 0's queues, one of each class,
			// are asked: their thresholds are their classes'.
			if q < len(thrs) {
				thr = min(sw.policy.Threshold(sw, q), sw.Capacity())
				thrs[q].cur = append(thrs[q].cur, float64(thr))
				r.thrNow[c] = thr
			}
			qr := &r.queues[q]
			r.put(&qr.occ, float64(l))
			r.put(&qr.ecn, float64(sw.queueStats[q].ECNMarked))
			qr.peak = max(qr.peak, l)
			qr.sum += float64(l)
			qr.minHeadroom = min(qr.minHeadroom, thr-l)
			portOcc += l
			q++
		}
		pr := &r.ports[p]
		pr.peak = max(pr.peak, portOcc)
		pr.sum += float64(portOcc)
	}
	r.n++
}

// put appends v to s, a series kept from its first non-zero value: it
// stays nil while v is 0.
func (r *Recorder) put(s *series, v float64) {
	if s.cur == nil {
		if v == 0 {
			return
		}
		r.start(s)
	}
	s.cur = append(s.cur, v)
}

// start gives s its first chunk at the current sample, out of line so
// that Sample has no allocation site.
//
//go:noinline
func (r *Recorder) start(s *series) {
	s.id, s.from = r.chunks.take(-1), int32(r.n)
	s.cur = r.chunks.v[s.id][:r.n%chunkLen]
	r.live++
}

// spill moves every series being written on to a fresh chunk: the
// current ones are full.
//
//go:noinline
func (r *Recorder) spill() {
	r.each(func(s *series) {
		if s.cur != nil {
			s.id = r.chunks.take(s.id)
			s.cur = r.chunks.v[s.id][:0]
		}
	})
}

// each calls f with every series: the fixed ones, then each queue's.
func (r *Recorder) each(f func(*series)) {
	for i := range r.fixed {
		f(&r.fixed[i])
	}
	for q := range r.queues {
		f(&r.queues[q].occ)
		f(&r.queues[q].ecn)
	}
}

// Finish copies every distinct series, once, into one slab of exactly its
// samples, and leaves the chunks to the pool. It is called once, after
// the last Sample; a canceled run's recorders are never finished.
func (r *Recorder) Finish() {
	n, idle := r.n, 0
	if r.live < len(r.fixed)+2*len(r.queues) {
		idle = 1
	}
	r.Times = make([]sim.Time, n)
	r.walk(r.fixed[0], func(lo int, vals []float64) {
		for i, v := range vals {
			r.Times[lo+i] = sim.Time(math.Float64bits(v))
		}
	})
	slab := make([]float64, (r.live-1+idle)*n) // every live series but Times, and the zero series
	carve := func() []float64 {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}
	var zero []float64
	if idle > 0 {
		zero = carve()
	}
	r.each(func(s *series) {
		switch {
		case s.cur == nil:
			s.cur = zero
		case s != &r.fixed[0]:
			dst := carve()
			r.walk(*s, func(lo int, vals []float64) { copy(dst[lo:], vals) })
			s.cur = dst
		}
	})
	r.Series, r.fixed[0].cur = r.fixed[1].cur, nil
}

// walk calls f with each chunk's part of s — the values of samples
// [lo, lo+len(vals)) — last chunk first.
func (r *Recorder) walk(s series, f func(lo int, vals []float64)) {
	hi := r.n
	for id, base := s.id, (r.n-1)/chunkLen*chunkLen; id >= 0; id, base = r.chunks.prev[id], base-chunkLen {
		lo := max(base, int(s.from))
		f(lo, r.chunks.v[id][lo-base:hi-base])
		hi = base
	}
}

// QueueSeries returns queue q's sampled length in bytes (flat index
// port*ClassesPerPort+class), one entry per Sample call.
func (r *Recorder) QueueSeries(q int) []float64 { return r.queues[q].occ.cur }

// ThresholdSeries returns the admission policy's limit for queue q at
// the same instants, clamped to the buffer capacity (unbounded policies
// report Capacity, and a DT threshold over an empty buffer can exceed it
// many times over). Under a class policy, every queue of a class returns
// its class's one series: queue q is of class q mod ClassesPerPort.
func (r *Recorder) ThresholdSeries(q int) []float64 {
	thrs := r.fixed[2:]
	return thrs[q%len(thrs)].cur
}

// ECNSeries returns queue q's cumulative ECN-mark counter at the same
// instants (a flat segment is a quiet queue, a steep one a marking burst).
func (r *Recorder) ECNSeries(q int) []float64 { return r.queues[q].ecn.cur }

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
func (r *Recorder) PortPeak(i int) int { return r.ports[i].peak }

// PortMean returns the average sampled occupancy of port i in bytes.
func (r *Recorder) PortMean(i int) float64 {
	if r.n == 0 {
		return 0
	}
	return r.ports[i].sum / float64(r.n)
}

// QueuePeak returns the highest sampled length of queue q in bytes.
func (r *Recorder) QueuePeak(q int) int { return r.queues[q].peak }

// QueueMean returns the average sampled length of queue q in bytes.
func (r *Recorder) QueueMean(q int) float64 {
	if r.n == 0 {
		return 0
	}
	return r.queues[q].sum / float64(r.n)
}

// QueueMinHeadroom returns the smallest sampled gap between the policy
// threshold (capacity-clamped) and queue q's length, in bytes. Negative
// while the queue sat over its threshold — exactly the over-allocation
// a preemptive policy expels. Zero before any sample.
func (r *Recorder) QueueMinHeadroom(q int) int {
	if r.n == 0 {
		return 0
	}
	return r.queues[q].minHeadroom
}
