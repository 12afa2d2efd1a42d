package core_test

// Preemptive-policy guarantees, driven through scripted traffic managers:
//
//   - Occamy's expulsion engine only ever head-drops queues that are
//     strictly over their threshold ("never evict below the guarantee"),
//     and it converges: once no queue is over-allocated it goes idle.
//   - Pushout frees exactly enough: it stops evicting as soon as the
//     arriving packet fits, never over-evicts past one packet, and never
//     drops from an empty buffer.
//   - POT refuses to evict when the arriving packet's queue is already
//     at or above its pushout threshold.
//   - QPO frees enough or reports failure, never looping on empty queues.

import (
	"sort"
	"testing"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/hw"
	"occamy/internal/sim"
)

// mockTM is a scripted traffic manager and bm.State: per-queue packet
// size lists, fixed thresholds per class (queue q is of class q mod
// len(thresholds); every queue is of class 0 without them), and a
// manually pumped event queue.
type mockTM struct {
	t          *testing.T
	cap        int
	queues     [][]int // per-queue packet sizes, head first
	thresholds []int   // per class
	cellSize   int

	now    sim.Time
	events []mockEvent

	drops []mockDrop
}

type mockEvent struct {
	at sim.Time
	fn func()
}

type mockDrop struct {
	queue     int
	lenBefore int
	threshold int
}

func newMockTM(t *testing.T, cap int, queues [][]int, thresholds []int) *mockTM {
	return &mockTM{t: t, cap: cap, queues: queues, thresholds: thresholds, cellSize: 200}
}

func (m *mockTM) Backlogged() *hw.Bitmap {
	b := hw.NewBitmap(len(m.queues))
	for q := range m.queues {
		b.Assign(q, m.QueueLen(q) > 0)
	}
	return b
}
func (m *mockTM) QueueLen(q int) int {
	total := 0
	for _, s := range m.queues[q] {
		total += s
	}
	return total
}
func (m *mockTM) ClassesPerPort() int { return max(len(m.thresholds), 1) }
func (m *mockTM) Threshold(c int) int {
	if m.thresholds == nil {
		return m.cap
	}
	return m.thresholds[c]
}

// limit is queue q's threshold, its class's.
func (m *mockTM) limit(q int) int { return m.Threshold(m.QueuePriority(q)) }
func (m *mockTM) HeadPacketCells(q int) int {
	if len(m.queues[q]) == 0 {
		return 0
	}
	return (m.queues[q][0] + m.cellSize - 1) / m.cellSize
}
func (m *mockTM) HeadDrop(q int) (int, int, bool) {
	if len(m.queues[q]) == 0 {
		return 0, 0, false
	}
	m.drops = append(m.drops, mockDrop{queue: q, lenBefore: m.QueueLen(q), threshold: m.limit(q)})
	size := m.queues[q][0]
	m.queues[q] = m.queues[q][1:]
	return size, (size + m.cellSize - 1) / m.cellSize, true
}
func (m *mockTM) Now() sim.Time { return m.now }
func (m *mockTM) After(d sim.Duration, fn func()) {
	m.events = append(m.events, mockEvent{at: m.now + sim.Time(d), fn: fn})
}

// pump executes scheduled events in time order until quiescence.
func (m *mockTM) pump(maxEvents int) int {
	executed := 0
	for len(m.events) > 0 {
		sort.SliceStable(m.events, func(i, j int) bool { return m.events[i].at < m.events[j].at })
		ev := m.events[0]
		m.events = m.events[1:]
		if ev.at > m.now {
			m.now = ev.at
		}
		ev.fn()
		executed++
		if executed > maxEvents {
			m.t.Fatalf("expulsion engine did not converge within %d events", maxEvents)
		}
	}
	return executed
}

// bm.State for the Pushout-family tests.
func (m *mockTM) NumQueues() int { return len(m.queues) }
func (m *mockTM) Capacity() int  { return m.cap }
func (m *mockTM) Occupancy() int {
	total := 0
	for q := range m.queues {
		total += m.QueueLen(q)
	}
	return total
}
func (m *mockTM) QueuePriority(q int) int   { return q % m.ClassesPerPort() }
func (m *mockTM) DequeueRate(q int) float64 { return 1 }
func (m *mockTM) BackloggedInClass(c int) int {
	n := 0
	for q := range m.queues {
		if m.QueueLen(q) > 0 && m.QueuePriority(q) == c {
			n++
		}
	}
	return n
}

func packets(n, size int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// TestOccamyEngineNeverExpelsBelowThreshold scripts a switch with two
// over-allocated queues and two within their guarantee, kicks the
// engine, and asserts every single head-drop happened on a queue whose
// length exceeded its threshold at drop time.
func TestOccamyEngineNeverExpelsBelowThreshold(t *testing.T) {
	for _, victim := range []core.VictimPolicy{core.RoundRobin, core.LongestQueue} {
		victim := victim
		t.Run(victim.String(), func(t *testing.T) {
			tm := newMockTM(t, 1<<20,
				[][]int{
					packets(40, 1000), // 40KB, threshold 10KB: over
					packets(5, 1000),  // 5KB, threshold 10KB: within
					packets(80, 500),  // 40KB, threshold 39.9KB: over
					nil,               // empty
				},
				[]int{10_000, 10_000, 39_900}) // queue 3 is of class 0 again
			eng := core.NewEngine(tm, core.Config{Alpha: 8, Victim: victim})
			eng.Kick(0)
			tm.pump(10_000)

			if len(tm.drops) == 0 {
				t.Fatal("engine expelled nothing despite over-allocated queues")
			}
			for _, d := range tm.drops {
				if d.lenBefore <= d.threshold {
					t.Fatalf("expelled queue %d at length %d <= threshold %d", d.queue, d.lenBefore, d.threshold)
				}
			}
			// Convergence: afterwards no queue is over its threshold...
			for q := range tm.queues {
				if tm.QueueLen(q) > tm.limit(q) {
					t.Errorf("queue %d still over threshold after convergence: %d > %d",
						q, tm.QueueLen(q), tm.limit(q))
				}
			}
			// ...and the protected queue was never touched.
			if tm.QueueLen(1) != 5_000 {
				t.Errorf("queue 1 (within guarantee) lost bytes: %d left", tm.QueueLen(1))
			}
			st := eng.Stats()
			if st.ExpelledPackets != int64(len(tm.drops)) {
				t.Errorf("stats count %d != observed drops %d", st.ExpelledPackets, len(tm.drops))
			}
		})
	}
}

// TestOccamyEngineIdleWhenFair: with every queue inside its threshold a
// Kick must schedule nothing.
func TestOccamyEngineIdleWhenFair(t *testing.T) {
	tm := newMockTM(t, 1<<20,
		[][]int{packets(5, 1000), packets(3, 1000)},
		[]int{10_000})
	eng := core.NewEngine(tm, core.Config{Alpha: 8})
	eng.Kick(0)
	if n := tm.pump(10); n != 0 {
		t.Fatalf("engine scheduled %d events with no over-allocation", n)
	}
	if len(tm.drops) != 0 {
		t.Fatalf("engine expelled %d packets with no over-allocation", len(tm.drops))
	}
}

// TestPushoutFreesExactlyEnough: MakeRoom must stop the moment the
// packet fits — over-eviction is bounded by one packet — and must always
// pick the longest queue.
func TestPushoutFreesExactlyEnough(t *testing.T) {
	// Capacity 100KB, 99KB buffered: a 5KB arrival needs ~4KB freed.
	tm := newMockTM(t, 100_000,
		[][]int{packets(33, 1000), packets(50, 1000), packets(16, 1000)},
		nil)
	p := core.NewPushout()
	const need = 5_000
	if !p.MakeRoom(tm, tm, need) {
		t.Fatal("MakeRoom failed with plenty to evict")
	}
	free := tm.Capacity() - tm.Occupancy()
	if free < need {
		t.Fatalf("MakeRoom returned but only %d bytes free (need %d)", free, need)
	}
	if free >= need+1_000 {
		t.Fatalf("over-evicted: %d bytes free for a %d-byte packet (last packet 1000B)", free, need)
	}
	for _, d := range tm.drops {
		if d.queue != 1 {
			t.Errorf("evicted from queue %d, but queue 1 was longest", d.queue)
		}
	}
}

// TestPushoutEmptyBuffer: nothing buffered means no room can be made and
// no HeadDrop may be attempted in an infinite loop.
func TestPushoutEmptyBuffer(t *testing.T) {
	tm := newMockTM(t, 10_000, [][]int{nil, nil}, nil)
	if core.NewPushout().MakeRoom(tm, tm, 20_000) {
		t.Fatal("MakeRoom claims success on an empty buffer that can never fit the packet")
	}
	if len(tm.drops) != 0 {
		t.Fatalf("dropped %d packets from an empty buffer", len(tm.drops))
	}
}

// TestPOTRespectsGuarantee: a queue at or above fraction·B may not push
// anyone out; below it, eviction proceeds.
func TestPOTRespectsGuarantee(t *testing.T) {
	p := core.NewPOT(0.5)
	// Queue 0 holds 60KB of the 100KB buffer: >= 50KB threshold.
	tm := newMockTM(t, 100_000, [][]int{packets(60, 1000), packets(39, 1000)}, nil)
	if p.MakeRoomFor(tm, tm, 0, 2_000) {
		t.Fatal("POT evicted on behalf of a queue above its pushout threshold")
	}
	if len(tm.drops) != 0 {
		t.Fatalf("POT dropped %d packets despite refusing", len(tm.drops))
	}
	// Queue 1 is under the threshold: eviction allowed and sufficient.
	if !p.MakeRoomFor(tm, tm, 1, 2_000) {
		t.Fatal("POT refused eviction for a queue below its threshold")
	}
	if free := tm.Capacity() - tm.Occupancy(); free < 2_000 {
		t.Fatalf("POT returned with only %d free", free)
	}
}

// TestQPOFreesOrFails: QPO must free the requested room via its register
// (reseeding by scan when stale) or report failure on an empty buffer.
func TestQPOFreesOrFails(t *testing.T) {
	p := core.NewQPO()
	tm := newMockTM(t, 100_000, [][]int{packets(50, 1000), packets(49, 1000)}, nil)
	if !p.MakeRoomFor(tm, tm, 0, 3_000) {
		t.Fatal("QPO failed with a nearly full buffer to evict from")
	}
	if free := tm.Capacity() - tm.Occupancy(); free < 3_000 {
		t.Fatalf("QPO returned with only %d free", free)
	}
	empty := newMockTM(t, 10_000, [][]int{nil}, nil)
	if core.NewQPO().MakeRoomFor(empty, empty, 0, 20_000) {
		t.Fatal("QPO claims success on an empty buffer")
	}
}

var _ core.TM = (*mockTM)(nil)
var _ bm.State = (*mockTM)(nil)
