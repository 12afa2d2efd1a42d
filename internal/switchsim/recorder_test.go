package switchsim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// Per-port accounting: the per-port egress counters must sum to the
// switch-level stats exactly, and queue lengths must sum to the
// whole-switch occupancy at any instant.
func TestPortStatsSumToSwitchStats(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 4, ClassesPerPort: 2, BufferBytes: 12_000,
		ECNThresholdBytes: 2_000, Policy: bm.NewDT(1),
	}, 1e9)
	rng := sim.NewRand(9)
	for i := 0; i < 400; i++ {
		sw.Receive(mkpkt(pkt.NodeID(rng.Intn(4)), 500+rng.Intn(1000), rng.Intn(2)))
		if i%50 == 0 {
			eng.RunFor(20 * sim.Microsecond)
		}
		// Mid-run: occupancy decomposes over queues.
		sum := 0
		for q := 0; q < sw.NumQueues(); q++ {
			sum += sw.QueueLen(q)
		}
		if sum != sw.Occupancy() {
			t.Fatalf("queue lengths sum to %d, switch reports %d", sum, sw.Occupancy())
		}
	}
	eng.Run()

	var agg PortStats
	for p := 0; p < sw.NumPorts(); p++ {
		ps := sw.PortStats(p)
		agg.TxPackets += ps.TxPackets
		agg.TxBytes += ps.TxBytes
		agg.DropsAdmission += ps.DropsAdmission
		agg.DropsNoMemory += ps.DropsNoMemory
		agg.DropsExpelled += ps.DropsExpelled
		agg.ECNMarked += ps.ECNMarked
	}
	st := sw.Stats()
	if agg.TxPackets != st.TxPackets || agg.TxBytes != st.TxBytes {
		t.Errorf("per-port tx %+v != switch stats %+v", agg, st)
	}
	if agg.DropsAdmission != st.DropsAdmission || agg.DropsNoMemory != st.DropsNoMemory ||
		agg.DropsExpelled != st.DropsExpelled {
		t.Errorf("per-port drops %+v != switch stats %+v", agg, st)
	}
	if agg.ECNMarked != st.ECNMarked {
		t.Errorf("per-port ECN %d != switch %d", agg.ECNMarked, st.ECNMarked)
	}
	if st.DropsAdmission == 0 {
		t.Error("scenario too gentle: no admission drops exercised the per-port counters")
	}
	if st.ECNMarked == 0 {
		t.Error("no ECN marks exercised the per-port counters")
	}
}

// Per-queue accounting, one level below ports: each port's per-queue
// egress/drop/mark counters must sum to that port's PortStats exactly,
// so drops are attributable to the (port, class) queue, not only the
// port.
func TestQueueStatsSumToPortStats(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 4, ClassesPerPort: 2, BufferBytes: 12_000,
		ECNThresholdBytes: 2_000, Policy: bm.NewDT(1), Scheduler: SchedSP,
	}, 1e9)
	rng := sim.NewRand(9)
	for i := 0; i < 400; i++ {
		sw.Receive(mkpkt(pkt.NodeID(rng.Intn(4)), 500+rng.Intn(1000), rng.Intn(2)))
		if i%50 == 0 {
			eng.RunFor(20 * sim.Microsecond)
		}
	}
	eng.Run()

	classes := sw.ClassesPerPort()
	var drops, marks int64
	for p := 0; p < sw.NumPorts(); p++ {
		var agg QueueStats
		for c := 0; c < classes; c++ {
			qs := sw.QueueStats(p*classes + c)
			agg.TxPackets += qs.TxPackets
			agg.TxBytes += qs.TxBytes
			agg.DropsAdmission += qs.DropsAdmission
			agg.DropsNoMemory += qs.DropsNoMemory
			agg.DropsExpelled += qs.DropsExpelled
			agg.ECNMarked += qs.ECNMarked
		}
		ps := sw.PortStats(p)
		want := QueueStats{
			TxPackets: ps.TxPackets, TxBytes: ps.TxBytes,
			DropsAdmission: ps.DropsAdmission, DropsNoMemory: ps.DropsNoMemory,
			DropsExpelled: ps.DropsExpelled, ECNMarked: ps.ECNMarked,
		}
		if agg != want {
			t.Errorf("port %d: per-queue sums %+v != port stats %+v", p, agg, want)
		}
		drops += agg.Drops()
		marks += agg.ECNMarked
	}
	if drops == 0 {
		t.Error("scenario too gentle: no drops exercised the per-queue counters")
	}
	if marks == 0 {
		t.Error("no ECN marks exercised the per-queue counters")
	}
}

// The recorder's aggregates must match its own series, and per-port
// peaks can never exceed the whole-switch peak (samples are aligned).
func TestRecorderAggregates(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 2, ClassesPerPort: 1, BufferBytes: 50_000, Policy: bm.NewDT(1),
	}, 1e9)
	rec := newTestRecorder(sw)
	tick := eng.Every(0, 5*sim.Microsecond, func() { rec.Sample(eng.Now()) })
	rng := sim.NewRand(3)
	for i := 0; i < 200; i++ {
		sw.Receive(mkpkt(pkt.NodeID(rng.Intn(2)), 1000, 0))
		if i%11 == 0 {
			eng.RunFor(15 * sim.Microsecond)
		}
	}
	eng.RunFor(sim.Millisecond)
	tick.Stop()
	rec.Finish()

	if rec.Samples() == 0 || len(rec.Series) != rec.Samples() {
		t.Fatalf("series length %d, samples %d", len(rec.Series), rec.Samples())
	}
	peak, sum := 0.0, 0.0
	for _, v := range rec.Series {
		if v > peak {
			peak = v
		}
		sum += v
	}
	if int(peak) != rec.Peak() {
		t.Errorf("Peak()=%d, series max %g", rec.Peak(), peak)
	}
	if mean := sum / float64(len(rec.Series)); mean != rec.Mean() {
		t.Errorf("Mean()=%g, series mean %g", rec.Mean(), mean)
	}
	if rec.Peak() == 0 {
		t.Error("recorder never saw a non-empty buffer")
	}
	for p := 0; p < sw.NumPorts(); p++ {
		if rec.PortPeak(p) > rec.Peak() {
			t.Errorf("port %d peak %d exceeds switch peak %d", p, rec.PortPeak(p), rec.Peak())
		}
	}
}

// Per-queue sampling: at every instant the queue series sum to the
// switch series, and the per-port sums of the queue series have the
// recorder's port peaks and means; the threshold is sampled alongside,
// clamped to capacity; and the queue aggregates match their own series.
func TestRecorderQueueSeries(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 3, ClassesPerPort: 2, BufferBytes: 30_000,
		Policy: bm.NewDT(1), Scheduler: SchedDRR,
	}, 1e9)
	rec := newTestRecorder(sw)
	tick := eng.Every(0, 5*sim.Microsecond, func() { rec.Sample(eng.Now()) })
	rng := sim.NewRand(7)
	for i := 0; i < 300; i++ {
		sw.Receive(mkpkt(pkt.NodeID(rng.Intn(3)), 500+rng.Intn(1000), rng.Intn(2)))
		if i%13 == 0 {
			eng.RunFor(12 * sim.Microsecond)
		}
	}
	eng.RunFor(sim.Millisecond)
	tick.Stop()
	rec.Finish()

	n := rec.Samples()
	if n == 0 {
		t.Fatal("no samples")
	}
	classes := sw.ClassesPerPort()
	portPeak, portSum := make([]float64, sw.NumPorts()), make([]float64, sw.NumPorts())
	for s := 0; s < n; s++ {
		swSum := 0.0
		for p := 0; p < sw.NumPorts(); p++ {
			occ := 0.0
			for c := 0; c < classes; c++ {
				occ += rec.QueueSeries(p*classes + c)[s]
			}
			portPeak[p] = max(portPeak[p], occ)
			portSum[p] += occ
			swSum += occ
		}
		if swSum != rec.Series[s] {
			t.Fatalf("sample %d: queue sum %g != switch series %g", s, swSum, rec.Series[s])
		}
	}
	for p := 0; p < sw.NumPorts(); p++ {
		if int(portPeak[p]) != rec.PortPeak(p) || portSum[p]/float64(n) != rec.PortMean(p) {
			t.Errorf("port %d: PortPeak %d / PortMean %g, queue sums %g / %g",
				p, rec.PortPeak(p), rec.PortMean(p), portPeak[p], portSum[p]/float64(n))
		}
	}
	sawBacklog := false
	for q := 0; q < sw.NumQueues(); q++ {
		peak, sum := 0.0, 0.0
		minHead := rec.ThresholdSeries(q)[0] - rec.QueueSeries(q)[0]
		for s := 0; s < n; s++ {
			thr := rec.ThresholdSeries(q)[s]
			if thr < 0 || thr > float64(sw.Capacity()) {
				t.Fatalf("queue %d sample %d: threshold %g outside [0, capacity]", q, s, thr)
			}
			v := rec.QueueSeries(q)[s]
			if v > peak {
				peak = v
			}
			sum += v
			if h := thr - v; h < minHead {
				minHead = h
			}
		}
		if int(peak) != rec.QueuePeak(q) {
			t.Errorf("queue %d: QueuePeak %d, series max %g", q, rec.QueuePeak(q), peak)
		}
		if mean := sum / float64(n); mean != rec.QueueMean(q) {
			t.Errorf("queue %d: QueueMean %g, series mean %g", q, rec.QueueMean(q), mean)
		}
		if int(minHead) != rec.QueueMinHeadroom(q) {
			t.Errorf("queue %d: QueueMinHeadroom %d, series min %g", q, rec.QueueMinHeadroom(q), minHead)
		}
		if rec.QueuePeak(q) > 0 {
			sawBacklog = true
		}
	}
	if !sawBacklog {
		t.Error("no queue ever buffered; the scenario is too gentle to test per-queue sampling")
	}
}

// newTestRecorder is a recorder of sw that draws from a chunk pool of
// its own.
func newTestRecorder(sw *Switch) *Recorder { return newRecorder(sw, new(chunkPool)) }

// refRecorder is the recorder by its definition: at every sample, the
// switch's occupancy, each queue's length, its own capacity-clamped
// threshold and its ECN-mark count, and each port's sum of lengths,
// every series stored in full.
type refRecorder struct {
	sw            *Switch
	times         []sim.Time
	occ, thr, ecn [][]float64 // per queue
	port          [][]float64 // per port
	total         []float64
}

func newRefRecorder(sw *Switch) *refRecorder {
	return &refRecorder{
		sw:   sw,
		occ:  make([][]float64, sw.NumQueues()),
		thr:  make([][]float64, sw.NumQueues()),
		ecn:  make([][]float64, sw.NumQueues()),
		port: make([][]float64, sw.NumPorts()),
	}
}

func (r *refRecorder) sample(now sim.Time) {
	sw := r.sw
	r.times = append(r.times, now)
	r.total = append(r.total, float64(sw.Occupancy()))
	for p := range r.port {
		r.port[p] = append(r.port[p], 0)
	}
	for q := range r.occ {
		l := sw.QueueLen(q)
		r.occ[q] = append(r.occ[q], float64(l))
		r.thr[q] = append(r.thr[q], float64(min(sw.Policy().Threshold(sw, q), sw.Capacity())))
		r.ecn[q] = append(r.ecn[q], float64(sw.QueueStats(q).ECNMarked))
		p := r.port[q/sw.ClassesPerPort()]
		p[len(p)-1] += float64(l)
	}
}

// peakMean is a series' maximum and its mean, summed in sample order.
func peakMean(s []float64) (int, float64) {
	peak, sum := 0.0, 0.0
	for _, v := range s {
		peak = max(peak, v)
		sum += v
	}
	return int(peak), sum / float64(len(s))
}

// recorderSampleCounts are the sample counts the differential runs at:
// one sample, either side of and on the first chunk edge, a catalog
// run's 1 001, and the 2 917 of a gated incast storm.
var recorderSampleCounts = []int{1, chunkLen - 1, chunkLen, chunkLen + 1, 1001, 2917}

// firstBusy is the sample at which each queue of the differential's
// 4-port, 2-class switch first holds a packet: port 0's at the first
// sample, port 1's mid-chunk and on the first chunk edge, port 2's on the
// second edge and mid-way through the third chunk; port 3's never.
var firstBusy = []int{0, 0, 300, chunkLen, 2 * chunkLen, 1300, -1, -1}

// dirtyChunks is a chunk pool whose chunks hold NaN, as one a finished run
// handed on holds that run's values: a recorder that reads a slot it did
// not write reads NaN.
func dirtyChunks() *chunkPool {
	c := new(chunkPool)
	for range 256 {
		for i := range c.v[c.take(-1)] {
			c.v[c.used-1][i] = math.NaN()
		}
	}
	return c.rewind()
}

// The recorder keeps each distinct series once — a class policy's
// threshold per class, a queue's occupancy and ECN series from their
// first non-zero value — in chunks, and after Finish reads back exactly
// what a recorder storing every series in full records, bit for bit:
// under every policy, with ECN marking on and off, at sample counts
// either side of chunk edges, with queues that first fill at the first
// sample, mid-chunk, on a chunk edge and never. Two series share storage
// exactly when both are one class's threshold under a class policy, or
// both read as zeros. The reference asks each policy for each queue's own
// threshold at the same instant as the recorder; the side effects of
// Threshold (EDT's activation time, ABM's meter decay) give the same
// answer when asked twice at one instant.
func TestRecorderMatchesDefinition(t *testing.T) {
	for i, pc := range allPolicies(nil) {
		for _, ecn := range []int{0, 8_000} {
			t.Run(fmt.Sprintf("%s/ecn%d", pc.name, ecn), func(t *testing.T) {
				for _, n := range recorderSampleCounts {
					t.Run(fmt.Sprint(n), func(t *testing.T) { checkRecorder(t, i, ecn, n) })
				}
			})
		}
	}
}

// checkRecorder runs the differential's program for policy i over n
// samples, 4 ms of traffic apart.
func checkRecorder(t *testing.T, i, ecn, n int) {
	eng := sim.NewEngine()
	pc := allPolicies(eng)[i]
	sw, _ := testSwitch(t, eng, Config{
		Ports: 4, ClassesPerPort: 2, BufferBytes: 64_000, CellBytes: 64,
		Policy: pc.policy, Occamy: pc.occ, Scheduler: SchedDRR, ECNThresholdBytes: ecn,
	}, 1e9)
	period := 4 * sim.Millisecond / sim.Duration(n)
	r := sim.NewRand(uint64(31 + i))
	for q, first := range firstBusy {
		if first < 0 || first >= n {
			continue
		}
		port, class := pkt.NodeID(q/2), q%2
		from := int(sim.Duration(first) * period) // one nanosecond before the sample
		for k := 0; k < 12; k++ {
			eng.At(sim.Time(from), func() { sw.Receive(mkpkt(port, 1000, class)) })
		}
		for k := 0; k < 150; k++ {
			eng.At(sim.Time(from+r.Intn(int(4*sim.Millisecond)-from)), func() {
				sw.Receive(mkpkt(port, 40+r.Intn(1460), class))
			})
		}
	}
	rec, ref := newRecorder(sw, dirtyChunks()), newRefRecorder(sw)
	tick := eng.Every(1, period, func() {
		if rec.Samples() < n {
			rec.Sample(eng.Now())
			ref.sample(eng.Now())
		}
	})
	eng.RunUntil(sim.Time(sim.Duration(n) * period))
	tick.Stop()
	rec.Finish()

	if rec.Samples() != n || len(ref.occ[0]) != n {
		t.Fatalf("%d samples, reference %d, want %d", rec.Samples(), len(ref.occ[0]), n)
	}
	if !slices.Equal(rec.Times, ref.times) || !slices.Equal(rec.Series, ref.total) {
		t.Fatal("times or switch series differ from the definition")
	}
	// share records that s is stored as k, and fails if k has two copies
	// or s's storage is another series' too.
	key, addr := map[*float64]string{}, map[string]*float64{}
	share := func(k string, s []float64) {
		if a, ok := addr[k]; ok && a != &s[0] {
			t.Fatalf("%s has two copies", k)
		}
		if k2, ok := key[&s[0]]; ok && k2 != k {
			t.Fatalf("%s shares storage with %s", k, k2)
		}
		key[&s[0]], addr[k] = k, &s[0]
	}
	idle := func(name string, s []float64) string {
		if slices.ContainsFunc(s, func(v float64) bool { return v != 0 }) {
			return name
		}
		return "the zero series"
	}
	_, classPol := sw.Policy().(bm.ClassPolicy)
	share("switch", rec.Series)
	var marked bool
	for q := range ref.occ {
		if !slices.Equal(rec.QueueSeries(q), ref.occ[q]) || !slices.Equal(rec.ThresholdSeries(q), ref.thr[q]) ||
			!slices.Equal(rec.ECNSeries(q), ref.ecn[q]) {
			t.Fatalf("queue %d: occupancy, threshold or ECN series differs from the definition", q)
		}
		thr := fmt.Sprint("threshold ", q)
		if classPol {
			thr = fmt.Sprint("threshold of class ", q%2)
		}
		share(thr, rec.ThresholdSeries(q))
		share(idle(fmt.Sprint("occupancy ", q), ref.occ[q]), rec.QueueSeries(q))
		share(idle(fmt.Sprint("ecn ", q), ref.ecn[q]), rec.ECNSeries(q))
		peak, mean := peakMean(ref.occ[q])
		minHead := math.MaxInt
		for s := range ref.occ[q] {
			minHead = min(minHead, int(ref.thr[q][s]-ref.occ[q][s]))
		}
		if rec.QueuePeak(q) != peak || rec.QueueMean(q) != mean || rec.QueueMinHeadroom(q) != minHead {
			t.Errorf("queue %d: peak %d mean %g headroom %d, definition %d %g %d",
				q, rec.QueuePeak(q), rec.QueueMean(q), rec.QueueMinHeadroom(q), peak, mean, minHead)
		}
		want := firstBusy[q]
		if want >= n {
			want = -1
		}
		if first := slices.IndexFunc(ref.occ[q], func(v float64) bool { return v != 0 }); first != want {
			t.Fatalf("program is no test: queue %d first holds a packet at sample %d, want %d", q, first, want)
		}
		marked = marked || ref.ecn[q][n-1] > 0
	}
	for p := range ref.port {
		if peak, mean := peakMean(ref.port[p]); rec.PortPeak(p) != peak || rec.PortMean(p) != mean {
			t.Errorf("port %d: peak %d mean %g, definition %d %g", p, rec.PortPeak(p), rec.PortMean(p), peak, mean)
		}
	}
	if rec.Peak() == 0 || marked != (ecn > 0) {
		t.Fatalf("program is no test: peak %d, marks %v", rec.Peak(), marked)
	}
}

// BenchmarkRecorderSample is the steady-state cost of one aligned
// sample of every port and queue of an 8-port, 2-class switch: under DT
// and Pushout, whose thresholds are asked once per class, with traffic
// on every port and on two (the idle queues read as the zero series);
// and under ABM, whose threshold reads a class count and a drain meter
// per queue. Each window of samples is one run's: 1 024, and the 2 917 of
// a gated incast storm, both crossing chunk edges. A warm recorder, whose
// pool holds the chunks of the window before, allocates nothing.
func BenchmarkRecorderSample(b *testing.B) {
	for _, c := range []struct {
		name   string
		policy bm.Policy
		ports  int // how many ports the traffic is spread over
		window int
	}{
		{"DT", bm.NewDT(1), 8, 1024},
		{"DT-idle", bm.NewDT(1), 2, 1024},
		{"Pushout", core.NewPushout(), 8, 1024},
		{"ABM", bm.NewABM(2), 8, 1024},
		{"DT-2917", bm.NewDT(1), 8, 2917},
	} {
		b.Run(c.name, func(b *testing.B) {
			eng := sim.NewEngine()
			sw := New("bench", eng, Config{
				Ports: 8, ClassesPerPort: 2, BufferBytes: 1 << 20, Policy: c.policy,
			})
			for i := 0; i < 8; i++ {
				sw.AttachPort(i, 10e9, 0, func(*pkt.Packet) {})
			}
			sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })
			for i := 0; i < 64; i++ {
				sw.Receive(mkpkt(pkt.NodeID(i%c.ports), 1000, i&1))
			}
			rec := newTestRecorder(sw)
			for i := 0; i < c.window; i++ {
				rec.Sample(sim.Time(i)) // the window before fills the pool
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%c.window == 0 {
					rec.rewind()
				}
				rec.Sample(sim.Time(i))
			}
		})
	}
}

// rewind starts the recorder over in its pool's chunks, as the next run's
// recorder of the same switch would, for the next window of a benchmark.
func (r *Recorder) rewind() {
	r.chunks.rewind()
	r.n, r.live = 0, 0
	for i := range r.fixed {
		r.start(&r.fixed[i])
	}
	for q := range r.queues {
		r.queues[q].occ, r.queues[q].ecn = series{}, series{}
	}
}
