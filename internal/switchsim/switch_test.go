package switchsim

import (
	"slices"
	"sync"
	"testing"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

var pktID uint64

func mkpkt(dst pkt.NodeID, size, prio int) *pkt.Packet {
	pktID++
	return &pkt.Packet{ID: pktID, Dst: dst, Size: size, Priority: prio, ECNCapable: true}
}

// testSwitch builds a switch whose router sends packets to port Dst and
// collects delivered packets per port.
func testSwitch(t *testing.T, eng *sim.Engine, cfg Config, rateBps float64) (*Switch, []([]*pkt.Packet)) {
	t.Helper()
	sw := New("sw", eng, cfg)
	out := make([][]*pkt.Packet, cfg.Ports)
	for i := 0; i < cfg.Ports; i++ {
		i := i
		sw.AttachPort(i, rateBps, 0, func(p *pkt.Packet) { out[i] = append(out[i], p) })
	}
	sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })
	return sw, out
}

func TestForwardingTiming(t *testing.T) {
	eng := sim.NewEngine()
	sw, out := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 1, BufferBytes: 100000, Policy: bm.NewDT(1),
	}, 1e9) // 1Gbps
	sw.Receive(mkpkt(0, 1250, 0)) // 1250B at 1Gbps = 10µs
	eng.Run()
	if len(out[0]) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(out[0]))
	}
	if eng.Now() != 10*sim.Microsecond {
		t.Fatalf("delivery at %v, want 10µs", eng.Now())
	}
	st := sw.Stats()
	if st.RxPackets != 1 || st.TxPackets != 1 || st.TxBytes != 1250 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSerializationBackToBack(t *testing.T) {
	eng := sim.NewEngine()
	_, out := func() (*Switch, [][]*pkt.Packet) {
		sw, out := testSwitch(t, eng, Config{
			Ports: 1, ClassesPerPort: 1, BufferBytes: 100000, Policy: bm.NewDT(1),
		}, 1e9)
		for i := 0; i < 3; i++ {
			sw.Receive(mkpkt(0, 1250, 0))
		}
		return sw, out
	}()
	eng.Run()
	if len(out[0]) != 3 {
		t.Fatalf("delivered %d, want 3", len(out[0]))
	}
	if eng.Now() != 30*sim.Microsecond {
		t.Fatalf("last delivery at %v, want 30µs", eng.Now())
	}
}

func TestDTTailDropUnderOverload(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 1, BufferBytes: 10000, Policy: bm.NewDT(1),
	}, 1e9)
	dropped := 0
	sw.DropHook = func(p *pkt.Packet, q int, r DropReason) {
		if r != DropAdmission {
			t.Errorf("unexpected drop reason %v", r)
		}
		dropped++
	}
	// Burst of 20 × 1000B = 20KB into a 10KB buffer at one instant.
	for i := 0; i < 20; i++ {
		sw.Receive(mkpkt(0, 1000, 0))
	}
	if dropped == 0 {
		t.Fatal("no admission drops under 2x overload")
	}
	// DT with α=1 and one queue: threshold = free, queue grows until
	// qlen >= free, i.e. ~half the buffer.
	if got := sw.QueueLen(0); got > 6000 {
		t.Fatalf("queue grew to %d, want <= ~B/2", got)
	}
	eng.Run()
}

func TestECNMarking(t *testing.T) {
	eng := sim.NewEngine()
	sw, out := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 1, BufferBytes: 100000,
		Policy: bm.NewDT(8), ECNThresholdBytes: 3000,
	}, 1e9)
	for i := 0; i < 10; i++ {
		sw.Receive(mkpkt(0, 1000, 0))
	}
	eng.Run()
	marked := 0
	for _, p := range out[0] {
		if p.CE {
			marked++
		}
	}
	// All 10 packets arrive at t=0; the first immediately starts
	// serializing, so enqueue-time queue lengths run 0,0,1000,...,8000:
	// packets 5..10 see qlen >= 3000 and get marked.
	if marked != 6 {
		t.Fatalf("marked %d packets, want 6", marked)
	}
	if sw.Stats().ECNMarked != 6 {
		t.Fatalf("ECNMarked stat = %d", sw.Stats().ECNMarked)
	}
}

func TestStrictPriorityScheduling(t *testing.T) {
	eng := sim.NewEngine()
	sw, out := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 2, BufferBytes: 100000,
		Policy: bm.NewDT(8), Scheduler: SchedSP,
	}, 1e9)
	// Fill LP first, then HP: HP must still exit first (after the LP
	// packet already being serialized).
	for i := 0; i < 3; i++ {
		sw.Receive(mkpkt(0, 1000, 1))
	}
	for i := 0; i < 3; i++ {
		sw.Receive(mkpkt(0, 1000, 0))
	}
	eng.Run()
	// First delivered is LP (head of line at t=0), then all HP, then LP.
	prios := make([]int, 0, 6)
	for _, p := range out[0] {
		prios = append(prios, p.Priority)
	}
	want := []int{1, 0, 0, 0, 1, 1}
	for i := range want {
		if prios[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", prios, want)
		}
	}
}

func TestDRRFairBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	sw, out := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 2, BufferBytes: 1 << 20,
		Policy: bm.NewDT(8), Scheduler: SchedDRR,
	}, 1e9)
	// Both classes continuously backlogged with different packet sizes.
	for i := 0; i < 200; i++ {
		sw.Receive(mkpkt(0, 1500, 0))
	}
	for i := 0; i < 600; i++ {
		sw.Receive(mkpkt(0, 500, 1))
	}
	// Run until roughly half the traffic has left.
	eng.RunUntil(2 * sim.Millisecond)
	bytes := [2]int{}
	for _, p := range out[0] {
		bytes[p.Priority] += p.Size
	}
	ratio := float64(bytes[0]) / float64(bytes[1])
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("DRR byte ratio = %v (%d vs %d), want ~1", ratio, bytes[0], bytes[1])
	}
	eng.Run()
}

func TestOccamyExpelsSlowQueue(t *testing.T) {
	// The buffer-choking scenario in miniature: LP queue holds buffer
	// but drains slowly under SP; a HP burst arrives. Occamy must
	// head-drop the LP queue to free buffer.
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 2, BufferBytes: 20000,
		Policy:    core.New(core.Config{Alpha: 8}),
		Occamy:    &core.Config{Alpha: 8},
		Scheduler: SchedSP,
	}, 1e9)
	expelled := 0
	sw.DropHook = func(p *pkt.Packet, q int, r DropReason) {
		if r == DropExpelled {
			expelled++
		}
	}
	// Fill with LP traffic to near the DT limit.
	for i := 0; i < 17; i++ {
		sw.Receive(mkpkt(0, 1000, 1))
	}
	lpBefore := sw.QueueLen(1)
	// HP burst arrives shortly after: thresholds collapse, LP is
	// over-allocated, expulsion engine must act.
	eng.RunUntil(10 * sim.Microsecond)
	for i := 0; i < 10; i++ {
		sw.Receive(mkpkt(0, 1000, 0))
	}
	eng.RunUntil(200 * sim.Microsecond)
	if expelled == 0 {
		t.Fatal("Occamy never expelled from the over-allocated LP queue")
	}
	if sw.QueueLen(1) >= lpBefore {
		t.Fatalf("LP queue did not shrink: %d -> %d", lpBefore, sw.QueueLen(1))
	}
	eng.Run()
}

// The expulsion engine compares every queue with its class's threshold,
// so a policy with per-queue thresholds cannot drive it.
func TestOccamyNeedsClassPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted Occamy expulsion under ABM")
		}
	}()
	New("sw", sim.NewEngine(), Config{Ports: 1, ClassesPerPort: 1, BufferBytes: 1000, Policy: bm.NewABM(2), Occamy: &core.Config{}})
}

// A buffer of no bytes, or cells of negative size, has no cells to count.
func TestNewRejectsBadBuffer(t *testing.T) {
	for _, cfg := range []Config{{BufferBytes: 0}, {BufferBytes: 1000, CellBytes: -200}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted BufferBytes %d, CellBytes %d", cfg.BufferBytes, cfg.CellBytes)
				}
			}()
			cfg.Ports, cfg.ClassesPerPort, cfg.Policy = 1, 1, bm.NewDT(1)
			New("sw", sim.NewEngine(), cfg)
		}()
	}
}

func TestOccamyDoesNotExpelFairAllocations(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 2, ClassesPerPort: 1, BufferBytes: 1 << 20,
		Policy: core.New(core.Config{Alpha: 8}),
		Occamy: &core.Config{Alpha: 8},
	}, 1e9)
	for i := 0; i < 50; i++ {
		sw.Receive(mkpkt(pkt.NodeID(i%2), 1000, 0))
	}
	eng.Run()
	if sw.Stats().DropsExpelled != 0 {
		t.Fatalf("expelled %d packets with queues far under threshold", sw.Stats().DropsExpelled)
	}
}

func TestPushoutMakesRoomAtAdmission(t *testing.T) {
	eng := sim.NewEngine()
	sw, out := testSwitch(t, eng, Config{
		Ports: 2, ClassesPerPort: 1, BufferBytes: 10000,
		Policy: core.NewPushout(),
	}, 1e6) // slow ports so the buffer stays full
	// Fill the buffer entirely via queue 0: the first packet immediately
	// starts serializing (freeing its cells), so send 11 to leave 10
	// resident = the full 10KB.
	for i := 0; i < 11; i++ {
		sw.Receive(mkpkt(0, 1000, 0))
	}
	// Arrival for queue 1 finds the buffer full: Pushout evicts from the
	// longest queue (0) and admits.
	expelled := 0
	sw.DropHook = func(p *pkt.Packet, q int, r DropReason) {
		if r == DropExpelled {
			expelled++
		}
	}
	sw.Receive(mkpkt(1, 1000, 0))
	if expelled == 0 {
		t.Fatal("Pushout did not evict on full buffer")
	}
	if sw.Stats().DropsAdmission != 0 {
		t.Fatal("Pushout tail-dropped the arriving packet")
	}
	eng.Run()
	if len(out[1]) != 1 {
		t.Fatalf("admitted packet not delivered: %d on port 1", len(out[1]))
	}
}

// TestHeadDropNeverTouchesCellData: on the memory-bandwidth meter, an
// arrival charges its cell writes, a transmit its pointer and cell-data
// reads (2 × cells), and a head-drop its pointer path alone (cells). Every
// operation happens at time 0, where the meter does not decay, so each
// charge is exactly its cells over the meter's time constant.
func TestHeadDropNeverTouchesCellData(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 1, BufferBytes: 100_000, Policy: bm.NewDT(8),
	}, 1e9)
	sw.EnableMemBandwidthMeter()
	m := sw.memBW
	charged := func(what string, op func(), cells ...int) {
		t.Helper()
		before, want := m.val, m.val
		for _, n := range cells {
			want += float64(n) / m.tau
		}
		op()
		if m.val != want {
			t.Fatalf("%s charged %.3f cells, want %v", what, (m.val-before)*m.tau, cells)
		}
	}
	// 200-byte cells: 1000 B take 5, a zero-length packet 1, 1500 B 8.
	charged("an arrival at an idle port", func() { sw.Receive(mkpkt(0, 1000, 0)) }, 5, 2*5)
	charged("an arrival behind it", func() { sw.Receive(mkpkt(0, 0, 0)) }, 1)
	charged("another arrival", func() { sw.Receive(mkpkt(0, 1500, 0)) }, 8)
	charged("a head-drop", func() { sw.HeadDrop(0) }, 1)
	charged("a head-drop", func() { sw.HeadDrop(0) }, 8)
	if eng.Now() != 0 {
		t.Fatalf("the charges ran at %v, where the meter decays", eng.Now())
	}
	eng.Run()
}

func TestMemBandwidthUtilizationBounded(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8),
	}, 1e9)
	sw.EnableMemBandwidthMeter()
	for i := 0; i < 100; i++ {
		sw.Receive(mkpkt(0, 1500, 0))
	}
	eng.RunUntil(500 * sim.Microsecond)
	u := sw.MemBandwidthUtilization()
	if u < 0 || u > 1 {
		t.Fatalf("utilization = %v out of [0,1]", u)
	}
	if u == 0 {
		t.Fatal("utilization = 0 while actively forwarding")
	}
	eng.Run()
}

func TestBufferUtilization(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 1, BufferBytes: 10000, Policy: bm.NewDT(8),
	}, 1e3) // ~no drain at this timescale
	// Three arrivals: one in flight, two resident = 2000/10000.
	sw.Receive(mkpkt(0, 1000, 0))
	sw.Receive(mkpkt(0, 1000, 0))
	sw.Receive(mkpkt(0, 1000, 0))
	if u := sw.BufferUtilization(); u < 0.19 || u > 0.21 {
		t.Fatalf("BufferUtilization = %v, want 0.2", u)
	}
	eng.Stop()
}

func TestABMOnSwitchLimitsSlowQueue(t *testing.T) {
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 1, ClassesPerPort: 2, BufferBytes: 50000,
		Policy: bm.NewABM(2), Scheduler: SchedSP,
	}, 1e9)
	// LP queue is starved by continuous HP traffic; its drain rate goes
	// to ~0, so ABM's threshold for it collapses and it cannot hoard.
	stop := false
	var feed func()
	feed = func() {
		if stop {
			return
		}
		sw.Receive(mkpkt(0, 1000, 0)) // HP keeps the port busy
		sw.Receive(mkpkt(0, 1000, 1)) // LP tries to build up
		eng.After(8*sim.Microsecond, feed)
	}
	eng.After(0, feed)
	eng.After(2*sim.Millisecond, func() { stop = true })
	eng.RunUntil(2 * sim.Millisecond)
	hp, lp := sw.QueueLen(0), sw.QueueLen(1)
	if lp > 25000 {
		t.Fatalf("ABM let the starved LP queue hoard %d bytes (HP %d)", lp, hp)
	}
	stop = true
	eng.Run()
}

func TestCellAccountingHoldsUnderRandomTraffic(t *testing.T) {
	// Soak: random sizes, classes, and ports with Occamy expulsion on;
	// the cell accounting must agree with the queue lists at the end, and
	// packets must be conserved.
	eng := sim.NewEngine()
	sw, _ := testSwitch(t, eng, Config{
		Ports: 4, ClassesPerPort: 2, BufferBytes: 100000,
		Policy: core.New(core.Config{Alpha: 4}), Occamy: &core.Config{Alpha: 4},
		Scheduler: SchedDRR,
	}, 1e9)
	r := sim.NewRand(42)
	for i := 0; i < 5000; i++ {
		at := sim.Time(r.Intn(int(2 * sim.Millisecond)))
		eng.At(at, func() {
			sw.Receive(mkpkt(pkt.NodeID(r.Intn(4)), 64+r.Intn(1436), r.Intn(2)))
		})
	}
	eng.Run()
	checkCells(t, sw, "the drain")
	st := sw.Stats()
	if st.TxPackets == 0 {
		t.Fatal("nothing forwarded")
	}
	if st.TxPackets+st.Drops()+st.DropsExpelled != st.RxPackets {
		t.Fatalf("packet conservation violated: %+v", st)
	}
}

// TestParkedSetStartsClean: a run's switches, parked with packets
// buffered, are the next run's, but only their queue structs pass on:
// each New takes the next parked switch's queues, builds everything else
// afresh, and starts with its own buffer's cells all free, whether that
// buffer is smaller or larger. The parked switch keeps no way into what
// it handed on. A set parked later replaces the earlier one whole.
func TestParkedSetStartsClean(t *testing.T) {
	build := func(buffer int) *Switch {
		sw, _ := testSwitch(t, sim.NewEngine(), Config{
			Ports: 2, ClassesPerPort: 2, BufferBytes: buffer, Policy: bm.NewDT(1),
		}, 1e9)
		return sw
	}
	replaced := []*Switch{build(40_000), build(40_000)}
	Park(replaced, nil)
	run := []*Switch{build(40_000), build(40_000)}
	for i := 0; i < 30; i++ {
		run[i%2].Receive(mkpkt(pkt.NodeID(i%2), 900, i/2%2))
	}
	parked := map[*classQueue]int{run[0].flat[0]: 0, run[1].flat[0]: 1}
	kept := map[any]bool{run[0].ports[0]: true, run[1].ports[0]: true, run[0].backlogged: true, run[1].backlogged: true}
	Park(run, nil)
	for i, buffer := range []int{20_000, 80_000, 40_000} {
		sw := build(buffer)
		if from, ok := parked[sw.flat[0]]; ok != (i < 2) || ok && from != i {
			t.Fatalf("switch %d took parked queues %d (%v)", i, from, ok)
		}
		if kept[sw.ports[0]] || kept[sw.backlogged] {
			t.Fatalf("switch %d took more than the queues of a parked switch", i)
		}
		if i < 2 && (run[i].flat != nil || run[i].ports != nil) {
			t.Fatalf("parked switch %d still reaches what it handed on", i)
		}
		checkCells(t, sw, "New")
		if cells := buffer / 200; sw.Occupancy() != 0 || sw.BufferedPackets() != 0 || sw.freeCells != cells {
			t.Fatalf("switch %d starts with %d bytes, %d packets, %d of %d cells free", i,
				sw.Occupancy(), sw.BufferedPackets(), sw.freeCells, cells)
		}
		for k := 0; k < 10; k++ {
			sw.Receive(mkpkt(pkt.NodeID(k%2), 900, k/2%2))
		}
		if st := sw.Stats(); sw.Occupancy() != int(st.RxPackets-st.TxPackets-st.Drops())*900 {
			t.Fatalf("switch %d holds %d bytes after %+v", i, sw.Occupancy(), st)
		}
		checkCells(t, sw, "ten arrivals")
	}
}

// TestParkConcurrent: runs on several goroutines build their switches and
// recorders in whatever set another parked, sample across chunk edges,
// finish and park again. No two runs share a switch or a chunk, so every
// recording reads back the occupancy its run saw; under -race the slot's
// handoff is checked too.
func TestParkConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := 0; run < 20; run++ {
				eng := sim.NewEngine()
				switches := make([]*Switch, 1+(g+run)%4)
				for i := range switches {
					switches[i] = New("sw", eng, Config{
						Ports: 2 + i, ClassesPerPort: 2, BufferBytes: 20_000 * (1 + run%3), Policy: bm.NewDT(1),
					})
					switches[i].SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })
				}
				recs := NewRecorders(switches)
				want := make([][]int32, len(switches))
				for k := 0; k < chunkLen+100+run; k++ {
					for i, sw := range switches {
						if k%7 == i {
							sw.Receive(&pkt.Packet{ID: uint64(k + 1), Dst: pkt.NodeID(k % 2), Size: 100 + k%900, Priority: k % 2})
						}
						recs[i].Sample()
						want[i] = append(want[i], int32(sw.Occupancy()))
					}
				}
				for i, rec := range recs {
					if err := rec.Finish(); err != nil {
						t.Error(err)
					}
					if !slices.Equal(rec.Series, want[i]) {
						t.Errorf("goroutine %d run %d switch %d: the recording differs from what the run saw", g, run, i)
					}
				}
				Park(switches, recs)
			}
		}()
	}
	wg.Wait()
}
