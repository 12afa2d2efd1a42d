package switchsim

import (
	"testing"

	"occamy/internal/core"
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// TestHeadDropSurvivesRecyclingHook: a DropHook that returns expelled
// packets to a pkt.Pool zeroes them in place; HeadDrop must still report
// the true packet size (the expulsion engine's ExpelledBytes accounting
// depends on it).
func TestHeadDropSurvivesRecyclingHook(t *testing.T) {
	eng := sim.NewEngine()
	occ := core.Config{Alpha: 8}
	sw := New("hd", eng, Config{
		Ports: 2, ClassesPerPort: 1, BufferBytes: 64_000,
		Policy: core.New(occ), Occamy: &occ,
	})
	for i := 0; i < 2; i++ {
		sw.AttachPort(i, 1e9, 0, func(*pkt.Packet) {})
	}
	sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })

	pool := pkt.NewPool()
	sw.DropHook = func(p *pkt.Packet, q int, r DropReason) { pool.Put(p) }

	const size = 1000
	for i := 0; i < 10; i++ {
		sw.Receive(&pkt.Packet{ID: uint64(i + 1), Dst: 0, Size: size})
	}
	bytes, cells, ok := sw.HeadDrop(0)
	if !ok {
		t.Fatal("HeadDrop failed on a backlogged queue")
	}
	if bytes != size {
		t.Fatalf("HeadDrop reported %d bytes, want %d (packet recycled before the size was read?)", bytes, size)
	}
	if want := sw.cellsFor(size); cells != want {
		t.Fatalf("HeadDrop reported %d cells, want %d", cells, want)
	}
}

// TestHeadDropEmptiesBackloggedBit: head-drops that take a queue's last
// packet clear its backlogged bit — the soak's expulsions hit long queues
// and never get that far — and a zero-length packet, which occupies a cell
// but no bytes, never sets it.
func TestHeadDropEmptiesBackloggedBit(t *testing.T) {
	sw := New("hd", sim.NewEngine(), Config{Ports: 2, ClassesPerPort: 1, BufferBytes: 64_000, Policy: core.NewPushout()})
	sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })
	// No port is attached, so nothing transmits: only HeadDrop dequeues.
	sw.Receive(&pkt.Packet{ID: 1, Dst: 1, Size: 0})
	checkBacklogged(t, sw, "a zero-length enqueue")
	sw.Receive(&pkt.Packet{ID: 2, Dst: 0, Size: 700})
	sw.Receive(&pkt.Packet{ID: 3, Dst: 0, Size: 300})
	checkBacklogged(t, sw, "two enqueues")
	for want := 1; want >= 0; want-- {
		if _, _, ok := sw.HeadDrop(0); !ok {
			t.Fatal("HeadDrop failed on a backlogged queue")
		}
		checkBacklogged(t, sw, "a head-drop")
		if got := sw.Backlogged().Count(); got != want {
			t.Fatalf("%d queues backlogged, want %d", got, want)
		}
	}
}
