package switchsim

import (
	"reflect"
	"testing"

	"occamy/internal/bm"
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// Per-port accounting: the per-port egress counters must sum to the
// switch-level stats exactly, and per-port occupancy must sum to the
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
		// Mid-run: occupancy decomposes over ports.
		sum := 0
		for p := 0; p < sw.NumPorts(); p++ {
			sum += sw.PortOccupancy(p)
		}
		if sum != sw.Occupancy() {
			t.Fatalf("port occupancies sum to %d, switch reports %d", sum, sw.Occupancy())
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
	rec := NewRecorder(sw)
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

// Per-queue sampling: at every instant the queue series of a port sum
// to its port series and the port series to the switch series; the
// threshold is sampled alongside, clamped to capacity; and the queue
// aggregates match their own series.
func TestRecorderQueueSeries(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 3, ClassesPerPort: 2, BufferBytes: 30_000,
		Policy: bm.NewDT(1), Scheduler: SchedDRR,
	}, 1e9)
	rec := NewRecorder(sw)
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

	n := rec.Samples()
	if n == 0 {
		t.Fatal("no samples")
	}
	classes := sw.ClassesPerPort()
	for s := 0; s < n; s++ {
		swSum := 0.0
		for p := 0; p < sw.NumPorts(); p++ {
			portSum := 0.0
			for c := 0; c < classes; c++ {
				portSum += rec.QueueSeries[p*classes+c][s]
			}
			if portSum != rec.PortSeries[p][s] {
				t.Fatalf("sample %d port %d: queue sum %g != port series %g", s, p, portSum, rec.PortSeries[p][s])
			}
			swSum += rec.PortSeries[p][s]
		}
		if swSum != rec.Series[s] {
			t.Fatalf("sample %d: port sum %g != switch series %g", s, swSum, rec.Series[s])
		}
	}
	sawBacklog := false
	for q := 0; q < sw.NumQueues(); q++ {
		peak, sum := 0.0, 0.0
		minHead := rec.ThresholdSeries[q][0] - rec.QueueSeries[q][0]
		for s := 0; s < n; s++ {
			thr := rec.ThresholdSeries[q][s]
			if thr < 0 || thr > float64(sw.Capacity()) {
				t.Fatalf("queue %d sample %d: threshold %g outside [0, capacity]", q, s, thr)
			}
			v := rec.QueueSeries[q][s]
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

// driveRecorders samples every recorder at the same instants of one
// switch under a seeded load with drops and ECN marks, and returns the
// number of samples taken.
func driveRecorders(t *testing.T, recs ...*Recorder) int {
	t.Helper()
	sw := recs[0].Switch()
	eng := sw.eng
	tick := eng.Every(0, 5*sim.Microsecond, func() {
		for _, rec := range recs {
			rec.Sample(eng.Now())
		}
	})
	rng := sim.NewRand(7)
	for i := 0; i < 300; i++ {
		sw.Receive(mkpkt(pkt.NodeID(rng.Intn(sw.NumPorts())), 500+rng.Intn(1000), rng.Intn(2)))
		if i%13 == 0 {
			eng.RunFor(12 * sim.Microsecond)
		}
	}
	eng.RunFor(sim.Millisecond)
	tick.Stop()
	if recs[0].Peak() == 0 || sw.Stats().ECNMarked == 0 {
		t.Fatal("scenario too gentle: nothing buffered or nothing marked")
	}
	return recs[0].Samples()
}

func recorderTestSwitch(t *testing.T) *Switch {
	sw, _ := testSwitch(t, sim.NewEngine(), Config{
		Ports: 3, ClassesPerPort: 2, BufferBytes: 30_000,
		ECNThresholdBytes: 2_000, Policy: bm.NewDT(1), Scheduler: SchedDRR,
	}, 1e9)
	return sw
}

// everySeries lists a recorder's float series in a fixed order.
func everySeries(r *Recorder) [][]float64 {
	all := [][]float64{r.Series}
	all = append(all, r.PortSeries...)
	all = append(all, r.QueueSeries...)
	all = append(all, r.ThresholdSeries...)
	return append(all, r.ECNSeries...)
}

// requireSameRecording fails unless two recorders of one switch hold
// the same times, series and aggregates.
func requireSameRecording(t *testing.T, what string, got, want *Recorder) {
	t.Helper()
	if !reflect.DeepEqual(got.Times, want.Times) || !reflect.DeepEqual(everySeries(got), everySeries(want)) {
		t.Fatalf("%s: times or series differ from the unreserved recorder's", what)
	}
	sw := want.Switch()
	if got.Samples() != want.Samples() || got.Peak() != want.Peak() || got.Mean() != want.Mean() {
		t.Errorf("%s: switch aggregates differ", what)
	}
	for p := 0; p < sw.NumPorts(); p++ {
		if got.PortPeak(p) != want.PortPeak(p) || got.PortMean(p) != want.PortMean(p) {
			t.Errorf("%s: port %d aggregates differ", what, p)
		}
	}
	for q := 0; q < sw.NumQueues(); q++ {
		if got.QueuePeak(q) != want.QueuePeak(q) || got.QueueMean(q) != want.QueueMean(q) ||
			got.QueueMinHeadroom(q) != want.QueueMinHeadroom(q) {
			t.Errorf("%s: queue %d aggregates differ", what, q)
		}
	}
}

// A reservation changes where samples are stored and nothing else: an
// unreserved recorder (the hand-wired callers' kind), one reserved for
// exactly the run and one reserved short — it samples past its slab,
// the gated-transport and capped-reservation case — all hold the same
// recording. The short one is the three-index guard: growing a series
// past its reservation must reallocate it, not run on into its
// neighbour's slots.
func TestRecorderReserve(t *testing.T) {
	sw := recorderTestSwitch(t)
	plain := NewRecorder(sw)
	n := driveRecorders(t, plain)

	sw = recorderTestSwitch(t)
	plain = NewRecorder(sw)
	exact, short := NewRecorder(sw), NewRecorder(sw)
	exact.Reserve(n)
	short.Reserve(n / 3)
	if got := driveRecorders(t, plain, exact, short); got != n {
		t.Fatalf("second drive took %d samples, first %d", got, n)
	}
	if n < 30 || len(plain.Series) != n {
		t.Fatalf("%d samples, series of %d", n, len(plain.Series))
	}
	requireSameRecording(t, "reserved exactly", exact, plain)
	requireSameRecording(t, "reserved short", short, plain)
	for i, s := range everySeries(exact) {
		if cap(s) != n {
			t.Errorf("exact reservation: series %d has cap %d, want its own %d slots", i, cap(s), n)
		}
	}
}

// BenchmarkRecorderSample is the steady-state cost of one aligned
// sample of every port and queue, under DT and under ABM, whose
// threshold reads a class count and a drain meter per queue: after
// Reserve it allocates nothing.
func BenchmarkRecorderSample(b *testing.B) {
	for _, c := range []struct {
		name   string
		policy bm.Policy
	}{
		{"DT", bm.NewDT(1)},
		{"ABM", bm.NewABM(2)},
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
				sw.Receive(mkpkt(pkt.NodeID(i&7), 1000, i&1))
			}
			const window = 1024 // a run's worth of samples; the slab is reused across windows
			rec := NewRecorder(sw)
			rec.Reserve(window)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%window == 0 {
					rec.Times = rec.Times[:0]
					rec.Series = rec.Series[:0]
					for _, group := range [][][]float64{rec.PortSeries, rec.QueueSeries, rec.ThresholdSeries, rec.ECNSeries} {
						for j := range group {
							group[j] = group[j][:0]
						}
					}
				}
				rec.Sample(sim.Time(i))
			}
		})
	}
}
