package switchsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// drainMeteredDT is DT carrying the marker that makes the switch keep
// its per-queue drain meters, which DT never reads.
type drainMeteredDT struct{ *bm.DT }

func (drainMeteredDT) ReadsDequeueRate() {}

// meterTrace is everything a run of meterProgram lets a caller observe.
type meterTrace struct {
	stats  Stats
	ports  []PortStats
	queues []QueueStats
	lens   []int // every queue's length at every sampling instant
	drops  []meterDrop
}

type meterDrop struct {
	id     uint64
	q      int
	reason DropReason
}

// meterProgram offers a fixed seeded overload to a 4×2 switch and
// records what came of it.
func meterProgram(policy bm.Policy, occ *core.Config, memMeter bool) meterTrace {
	eng := sim.NewEngine()
	sw := New("meters", eng, Config{
		Ports: 4, ClassesPerPort: 2, BufferBytes: 64_000,
		Policy: policy, Occamy: occ, Scheduler: SchedDRR, ECNThresholdBytes: 16_000,
	})
	for i := 0; i < 4; i++ {
		sw.AttachPort(i, 1e9, 0, func(*pkt.Packet) {})
	}
	sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })
	if memMeter {
		sw.EnableMemBandwidthMeter()
	}
	var tr meterTrace
	sw.DropHook = func(p *pkt.Packet, q int, reason DropReason) {
		tr.drops = append(tr.drops, meterDrop{p.ID, q, reason})
	}
	r := sim.NewRand(4242)
	var id uint64
	for i := 0; i < 3000; i++ {
		eng.At(sim.Time(r.Intn(int(3*sim.Millisecond))), func() {
			id++
			sw.Receive(&pkt.Packet{
				ID: id, Dst: pkt.NodeID(r.Intn(4)), Size: 40 + r.Intn(1460),
				Priority: r.Intn(2), ECNCapable: true,
			})
		})
	}
	eng.Every(0, 50*sim.Microsecond, func() {
		for q := 0; q < sw.NumQueues(); q++ {
			tr.lens = append(tr.lens, sw.QueueLen(q))
		}
		if memMeter {
			sw.MemBandwidthUtilization() // a read decays the meter; it must not steer either
		}
	})
	eng.RunUntil(4 * sim.Millisecond)
	tr.stats = sw.Stats()
	for i := 0; i < sw.NumPorts(); i++ {
		tr.ports = append(tr.ports, sw.PortStats(i))
	}
	for q := 0; q < sw.NumQueues(); q++ {
		tr.queues = append(tr.queues, sw.QueueStats(q))
	}
	return tr
}

// The meters observe and never steer: a switch that keeps them and one
// that does not treat the same packets identically.
func TestMetersObserveNeverSteer(t *testing.T) {
	occ := core.Config{Alpha: 8}
	for _, c := range []struct {
		name   string
		policy func() bm.Policy
		occ    *core.Config
	}{
		{"DT", func() bm.Policy { return bm.NewDT(1) }, nil},
		{"ABM", func() bm.Policy { return bm.NewABM(2) }, nil},
		{"Occamy", func() bm.Policy { return core.New(occ) }, &occ},
		{"Pushout", func() bm.Policy { return core.NewPushout() }, nil},
	} {
		bare := meterProgram(c.policy(), c.occ, false)
		if len(bare.drops) == 0 || bare.stats.TxPackets == 0 {
			t.Fatalf("%s: program is no test: %d drops, %+v", c.name, len(bare.drops), bare.stats)
		}
		if got := meterProgram(c.policy(), c.occ, true); !reflect.DeepEqual(got, bare) {
			t.Errorf("%s: the memory-bandwidth meter changed the run:\n metered %+v\n bare    %+v", c.name, got.stats, bare.stats)
		}
	}
	bare := meterProgram(bm.NewDT(1), nil, false)
	if got := meterProgram(drainMeteredDT{bm.NewDT(1)}, nil, true); !reflect.DeepEqual(got, bare) {
		t.Errorf("the drain meters changed the run:\n metered %+v\n bare    %+v", got.stats, bare.stats)
	}
}

// refMeter is rateMeter in closed form: every decay is val·exp(−dt/τ)
// with its own Exp call.
type refMeter struct {
	tau, val float64
	last     sim.Time
}

func (m *refMeter) rate(now sim.Time) float64 {
	if now > m.last {
		m.val *= math.Exp(-(now - m.last).Seconds() / m.tau)
		m.last = now
	}
	return m.val
}

// The meter's shortcuts — no Exp on a zero estimate, the last factor
// again on a repeated interval — change no bit of what it reports, over
// back-to-back impulses, fresh intervals, reads at one instant and idle
// gaps long enough for the estimate to underflow to zero.
func TestRateMeterMatchesClosedForm(t *testing.T) {
	var repeats, underflows int
	for seed := uint64(1); seed <= 20; seed++ {
		r := sim.NewRand(seed)
		m := newRateMeter()
		ref := &refMeter{tau: m.tau}
		var now sim.Time
		interval := sim.Duration(1 + r.Intn(2000))
		for i := 0; i < 2000; i++ {
			switch k := r.Intn(10); {
			case k < 5: // back to back: the interval repeats
				now += interval
				repeats++
			case k < 8:
				interval = sim.Duration(1 + r.Intn(int(50*sim.Microsecond)))
				now += interval
			case k < 9: // the same instant again
			default: // idle: exp(−gap/τ) underflows
				now += sim.Duration(int(10*sim.Millisecond) + r.Intn(int(100*sim.Millisecond)))
			}
			before := ref.val
			want := ref.rate(now)
			if before != 0 && want == 0 {
				underflows++
			}
			if r.Intn(3) != 0 {
				n := r.Intn(1500)
				m.add(now, n)
				ref.val += float64(n) / ref.tau
				want = ref.val
			}
			if got := m.rate(now); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d at %v: rate %v, closed form %v", seed, i, now, got, want)
			}
		}
	}
	if repeats == 0 || underflows == 0 {
		t.Fatalf("schedule is no test: %d repeated intervals, %d underflows to zero", repeats, underflows)
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	f()
	return ""
}

// A switch built without a meter refuses to answer from a history it
// never kept, and says which enable is missing.
func TestUnmeteredReadsPanic(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8),
	}, 1e9)
	if msg := panicMessage(func() { sw.MemBandwidthUtilization() }); !strings.Contains(msg, "EnableMemBandwidthMeter") {
		t.Errorf("MemBandwidthUtilization on an unmetered switch: panic %q, want one naming EnableMemBandwidthMeter", msg)
	}
	if msg := panicMessage(func() { sw.DequeueRate(0) }); !strings.Contains(msg, "ReadsDequeueRate") {
		t.Errorf("DequeueRate under DT: panic %q, want one naming ReadsDequeueRate", msg)
	}
	sw.Receive(mkpkt(0, 1500, 0))
	if msg := panicMessage(sw.EnableMemBandwidthMeter); !strings.Contains(msg, "after traffic") {
		t.Errorf("EnableMemBandwidthMeter after a packet: panic %q, want a refusal", msg)
	}
	eng.Run()

	abm, _ := testSwitch(t, sim.NewEngine(), Config{
		Ports: 1, ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewABM(2),
	}, 1e9)
	if msg := panicMessage(func() { abm.DequeueRate(0) }); msg != "" {
		t.Errorf("DequeueRate under ABM panicked: %q", msg)
	}
}
