package switchsim

import (
	"fmt"
	"testing"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/hw"
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// allPolicies builds one instance of every BM scheme in the repository,
// wired for a switch with the given engine. The DT family gives class 1
// its own α, so that a queue's class decides its threshold.
func allPolicies(eng *sim.Engine) []struct {
	name   string
	policy bm.Policy
	occ    *core.Config
} {
	byPrio := map[int]float64{1: 1}
	occCfg := core.Config{Alpha: 8, AlphaByPrio: byPrio}
	occLD := core.Config{Alpha: 8, AlphaByPrio: byPrio, Victim: core.LongestQueue}
	edt := bm.NewEDT(1, func() int64 { return int64(eng.Now()) })
	return []struct {
		name   string
		policy bm.Policy
		occ    *core.Config
	}{
		{"CS", bm.CompleteSharing{}, nil},
		{"ST", bm.StaticThreshold{Limit: 100_000}, nil},
		{"DT", &bm.DT{Alpha: 2, AlphaByPrio: byPrio}, nil},
		{"ABM", bm.NewABM(2), nil},
		{"EDT", edt, nil},
		{"TDT", bm.NewTDT(1), nil},
		{"Occamy", core.New(occCfg), &occCfg},
		{"Occamy-LD", core.New(occLD), &occLD},
		{"Pushout", core.NewPushout(), nil},
		{"POT", core.NewPOT(0.5), nil},
		{"QPO", core.NewQPO(), nil},
	}
}

// checkBacklogged holds the switch's backlogged set, its per-class
// counts and, once an expulsion engine runs, the comparator bank's
// bitmap to their definitions: the scan over every queue, asking the
// policy for each queue's own threshold, is the oracle.
func checkBacklogged(t *testing.T, sw *Switch, after string) {
	t.Helper()
	inClass := make([]int, sw.ClassesPerPort())
	var over *hw.Bitmap
	if sw.occ != nil {
		over = sw.occ.OverAllocated()
	}
	for q := 0; q < sw.NumQueues(); q++ {
		if got, want := sw.Backlogged().Get(q), sw.QueueLen(q) > 0; got != want {
			t.Fatalf("after %s: queue %d holds %d bytes, backlogged bit %v", after, q, sw.QueueLen(q), got)
		}
		if sw.QueueLen(q) > 0 {
			inClass[sw.QueuePriority(q)]++
		}
		if over == nil {
			continue
		}
		l, thr := sw.QueueLen(q), sw.policy.Threshold(sw, q)
		if got, want := over.Get(q), l > 0 && l > thr; got != want {
			t.Fatalf("after %s: queue %d holds %d bytes against threshold %d, over-allocation bit %v", after, q, l, thr, got)
		}
	}
	for c, want := range inClass {
		if got := sw.BackloggedInClass(c); got != want {
			t.Fatalf("after %s: class %d has %d non-empty queues, BackloggedInClass says %d", after, c, want, got)
		}
	}
}

// checkCells holds the buffer's accounting to the packets on the queue
// lists, which it walks: each queue's byte count is the sum of its
// packets' sizes, its backlogged bit says whether that sum is non-zero,
// and the free cells are the buffer's cells less those its buffered
// packets take, within [0, cells]. Cells are counted here from the
// configuration, not by the switch's own cellsFor.
func checkCells(t *testing.T, sw *Switch, after string) {
	t.Helper()
	cb := sw.cfg.CellBytes
	cellsOf := func(n int) int { return max(1, (n+cb-1)/cb) }
	cells, used := cellsOf(sw.cfg.BufferBytes), 0
	for q, cq := range sw.flat {
		bytes := 0
		// Walk the list by rotating it once: each packet popped is pushed
		// back, so the queue ends as it began.
		for range cq.meta.Len() {
			p := cq.meta.Pop()
			bytes += p.Size
			used += cellsOf(p.Size)
			cq.meta.Push(p)
		}
		if bytes != cq.bytes {
			t.Fatalf("after %s: queue %d lists %d bytes of packets, counts %d", after, q, bytes, cq.bytes)
		}
		if got := sw.Backlogged().Get(q); got != (bytes > 0) {
			t.Fatalf("after %s: queue %d lists %d bytes of packets, backlogged bit %v", after, q, bytes, got)
		}
	}
	if sw.freeCells != cells-used || sw.freeCells < 0 || sw.freeCells > cells {
		t.Fatalf("after %s: %d of %d cells free, but the buffered packets take %d", after, sw.freeCells, cells, used)
	}
}

// TestAllPoliciesSoak pushes randomized traffic through every policy and
// checks the system invariants that must hold regardless of scheme:
// packet conservation and non-negative queues — and, after every
// operation that moves a queue's length (an enqueue, a dequeue, a
// head-drop) or declines to (an admission or no-memory drop), that the
// cell accounting agrees with the queue lists (checkCells), the
// backlogged set is exactly the queues holding bytes, each class's count
// is exactly its share of them, and under Occamy the comparator bank
// marks exactly the backlogged queues over their threshold.
func TestAllPoliciesSoak(t *testing.T) {
	var dropped [3]int // by DropReason, over every policy and seed
	for seed := uint64(1); seed <= 3; seed++ {
		eng := sim.NewEngine()
		for _, pc := range allPolicies(eng) {
			pc := pc
			t.Run(fmt.Sprintf("%s/seed%d", pc.name, seed), func(t *testing.T) {
				eng := sim.NewEngine()
				var policy bm.Policy = pc.policy
				// Policies carry state: rebuild fresh per run.
				switch pc.name {
				case "EDT":
					policy = bm.NewEDT(1, func() int64 { return int64(eng.Now()) })
				case "TDT":
					policy = bm.NewTDT(1)
				case "Occamy":
					policy = core.New(*pc.occ)
				case "Occamy-LD":
					policy = core.New(*pc.occ)
				case "Pushout":
					policy = core.NewPushout()
				case "POT":
					policy = core.NewPOT(0.5)
				case "QPO":
					policy = core.NewQPO()
				}
				sw := New("soak", eng, Config{
					Ports: 4, ClassesPerPort: 2, BufferBytes: 64_000,
					// 200-byte cells run out before the bytes do (no-memory
					// drops, and nothing for a preemptive policy to do);
					// small cells let the byte limit bind (expulsions).
					CellBytes: []int{200, 64, 16}[seed-1],
					Policy:    policy, Occamy: pc.occ,
					Scheduler: SchedKind(int(seed) % 3), ECNThresholdBytes: 16_000,
				})
				for i := 0; i < 4; i++ {
					// With no propagation delay a delivery runs right behind
					// the tx-done that dequeued the next packet.
					sw.AttachPort(i, 1e9, 0, func(*pkt.Packet) {
						checkCells(t, sw, "a dequeue")
						checkBacklogged(t, sw, "a dequeue")
					})
				}
				sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })
				sw.DropHook = func(_ *pkt.Packet, _ int, reason DropReason) {
					dropped[reason]++
					checkCells(t, sw, "a drop ("+reason.String()+")")
					checkBacklogged(t, sw, "a drop ("+reason.String()+")")
				}

				r := sim.NewRand(seed * 77)
				var id uint64
				for i := 0; i < 3000; i++ {
					at := sim.Time(r.Intn(int(3 * sim.Millisecond)))
					eng.At(at, func() {
						id++
						sw.Receive(&pkt.Packet{
							ID:         id,
							FlowID:     uint64(r.Intn(16)),
							Dst:        pkt.NodeID(r.Intn(4)),
							Size:       40 + r.Intn(1460),
							Priority:   r.Intn(2),
							ECNCapable: r.Intn(2) == 0,
						})
						checkCells(t, sw, "Receive")
						checkBacklogged(t, sw, "Receive")
					})
				}
				eng.Run()
				checkCells(t, sw, "the drain")
				checkBacklogged(t, sw, "the drain")
				if sw.Backlogged().Any() {
					t.Fatalf("%d queues still marked backlogged after the drain", sw.Backlogged().Count())
				}
				st := sw.Stats()
				if st.TxPackets+st.Drops()+st.DropsExpelled != st.RxPackets {
					t.Fatalf("packet conservation: %+v", st)
				}
				for q := 0; q < sw.NumQueues(); q++ {
					if sw.QueueLen(q) != 0 {
						t.Fatalf("queue %d not drained: %d bytes", q, sw.QueueLen(q))
					}
				}
				if sw.Occupancy() != 0 {
					t.Fatalf("occupancy %d after drain", sw.Occupancy())
				}
			})
		}
	}
	for reason, n := range dropped {
		if n == 0 {
			t.Errorf("no %s drop in the whole soak: that path of the backlogged check never ran", DropReason(reason))
		}
	}
}
