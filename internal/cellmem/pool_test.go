package cellmem

import (
	"testing"
	"testing/quick"
)

func testPool(t *testing.T, cells int) *Pool {
	t.Helper()
	return New(Config{CellSize: 200, NumCells: cells})
}

func TestAllocRelease(t *testing.T) {
	p := testPool(t, 10)
	ref := p.Alloc(450, 7) // 3 cells
	if ref == NilPD {
		t.Fatal("Alloc failed with free buffer")
	}
	if p.FreeCells() != 7 {
		t.Fatalf("FreeCells = %d, want 7", p.FreeCells())
	}
	if p.Len(ref) != 450 || p.PktID(ref) != 7 || p.Cells(ref) != 3 {
		t.Fatalf("descriptor = len %d id %d cells %d", p.Len(ref), p.PktID(ref), p.Cells(ref))
	}
	p.Release(ref, true)
	if p.FreeCells() != 10 {
		t.Fatalf("FreeCells after release = %d, want 10", p.FreeCells())
	}
	p.CheckInvariants()
}

func TestAllocExhaustion(t *testing.T) {
	p := testPool(t, 4)
	a := p.Alloc(600, 1) // 3 cells
	if a == NilPD {
		t.Fatal("first Alloc failed")
	}
	if p.Alloc(400, 2) != NilPD { // needs 2, only 1 free
		t.Fatal("Alloc succeeded beyond capacity")
	}
	b := p.Alloc(200, 3) // exactly the last cell
	if b == NilPD {
		t.Fatal("Alloc of final cell failed")
	}
	if p.FreeCells() != 0 {
		t.Fatalf("FreeCells = %d, want 0", p.FreeCells())
	}
	p.Release(a, false)
	p.Release(b, true)
	p.CheckInvariants()
}

func TestCellsFor(t *testing.T) {
	p := testPool(t, 8)
	cases := []struct{ bytes, cells int }{
		{0, 1}, {1, 1}, {199, 1}, {200, 1}, {201, 2}, {400, 2}, {401, 3}, {1500, 8},
	}
	for _, c := range cases {
		if got := p.CellsFor(c.bytes); got != c.cells {
			t.Errorf("CellsFor(%d) = %d, want %d", c.bytes, got, c.cells)
		}
	}
}

func TestHeadDropSkipsCellDataMemory(t *testing.T) {
	p := testPool(t, 20)
	q := NewQueue(p)
	q.Enqueue(p.Alloc(1000, 1)) // 5 cells
	q.Enqueue(p.Alloc(1000, 2))

	before := p.Meters()
	if _, _, ok := q.HeadDrop(); !ok {
		t.Fatal("HeadDrop failed")
	}
	after := p.Meters()
	if after.CellDataReads != before.CellDataReads {
		t.Fatalf("head-drop read cell data memory: %d reads", after.CellDataReads-before.CellDataReads)
	}
	if after.PtrOps == before.PtrOps {
		t.Fatal("head-drop did not touch cell pointer memory")
	}

	// A normal dequeue must read the cell data.
	before = after
	if _, _, ok := q.Dequeue(); !ok {
		t.Fatal("Dequeue failed")
	}
	after = p.Meters()
	if after.CellDataReads-before.CellDataReads != 5 {
		t.Fatalf("dequeue read %d cells, want 5", after.CellDataReads-before.CellDataReads)
	}
}

func TestQueueFIFO(t *testing.T) {
	p := testPool(t, 100)
	q := NewQueue(p)
	for i := uint64(1); i <= 5; i++ {
		q.Enqueue(p.Alloc(300, i))
	}
	if q.Packets() != 5 || q.Len() != 1500 {
		t.Fatalf("queue = %d pkts %d bytes", q.Packets(), q.Len())
	}
	for i := uint64(1); i <= 5; i++ {
		n, id, ok := q.Dequeue()
		if !ok || id != i || n != 300 {
			t.Fatalf("Dequeue #%d = (%d, %d, %v)", i, n, id, ok)
		}
	}
	if !q.Empty() {
		t.Fatal("queue not empty after draining")
	}
	if _, _, ok := q.Dequeue(); ok {
		t.Fatal("Dequeue on empty queue succeeded")
	}
	p.CheckInvariants()
}

func TestQueueByteAccounting(t *testing.T) {
	p := testPool(t, 100)
	q := NewQueue(p)
	q.Enqueue(p.Alloc(700, 1))
	q.Enqueue(p.Alloc(900, 2))
	if q.Len() != 1600 {
		t.Fatalf("Len = %d, want 1600", q.Len())
	}
	q.HeadDrop()
	if q.Len() != 900 {
		t.Fatalf("Len after head-drop = %d, want 900", q.Len())
	}
}

func TestInterleavedQueuesShareCells(t *testing.T) {
	p := testPool(t, 10)
	q1, q2 := NewQueue(p), NewQueue(p)
	q1.Enqueue(p.Alloc(800, 1)) // 4 cells
	q2.Enqueue(p.Alloc(800, 2)) // 4 cells
	if p.FreeCells() != 2 {
		t.Fatalf("FreeCells = %d, want 2", p.FreeCells())
	}
	q1.Dequeue()
	q2.Enqueue(p.Alloc(1200, 3)) // 6 cells, fits after q1 freed
	if p.FreeCells() != 0 {
		t.Fatalf("FreeCells = %d, want 0", p.FreeCells())
	}
	q2.Dequeue()
	q2.Dequeue()
	p.CheckInvariants()
	if p.FreeCells() != 10 {
		t.Fatalf("FreeCells = %d, want 10", p.FreeCells())
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := testPool(t, 4)
	ref := p.Alloc(100, 1)
	p.Release(ref, true)
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	p.Release(ref, true)
}

func TestPDExhaustion(t *testing.T) {
	p := New(Config{CellSize: 200, NumCells: 100, NumPDs: 2})
	a := p.Alloc(100, 1)
	b := p.Alloc(100, 2)
	if a == NilPD || b == NilPD {
		t.Fatal("Alloc failed with free PDs")
	}
	if p.Alloc(100, 3) != NilPD {
		t.Fatal("Alloc succeeded with no free PDs")
	}
	p.Release(a, true)
	if p.Alloc(100, 4) == NilPD {
		t.Fatal("Alloc failed after PD freed")
	}
}

func TestMeta(t *testing.T) {
	p := testPool(t, 4)
	ref := p.Alloc(100, 1)
	if p.Meta(ref) != 0 {
		t.Fatal("fresh PD has non-zero meta")
	}
	p.SetMeta(ref, 0xdead)
	if p.Meta(ref) != 0xdead {
		t.Fatalf("Meta = %#x", p.Meta(ref))
	}
}

// Property: any sequence of alloc/dequeue/head-drop operations conserves
// cells and PDs, and queue byte counts always equal the sum of resident
// packet lengths.
func TestRandomOpsConservation(t *testing.T) {
	f := func(ops []uint16, seed uint8) bool {
		p := New(Config{CellSize: 64, NumCells: 64})
		queues := []*Queue{NewQueue(p), NewQueue(p), NewQueue(p)}
		resident := map[*Queue][]int{}
		id := uint64(0)
		for _, op := range ops {
			q := queues[int(op)%len(queues)]
			switch (op / 4) % 3 {
			case 0: // alloc+enqueue
				size := 1 + int(op%500)
				id++
				if ref := p.Alloc(size, id); ref != NilPD {
					q.Enqueue(ref)
					resident[q] = append(resident[q], size)
				}
			case 1: // dequeue
				if _, _, ok := q.Dequeue(); ok {
					resident[q] = resident[q][1:]
				}
			case 2: // head drop
				if _, _, ok := q.HeadDrop(); ok {
					resident[q] = resident[q][1:]
				}
			}
		}
		p.CheckInvariants()
		used := 0
		for _, q := range queues {
			sum := 0
			for _, s := range resident[q] {
				sum += s
			}
			if q.Len() != sum {
				return false
			}
			for _, s := range resident[q] {
				used += p.CellsFor(s)
			}
		}
		return p.UsedCells() == used
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{CellSize: 0, NumCells: 10},
		{CellSize: 200, NumCells: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(410 * 1024) // the DPDK prototype's 410KB buffer
	p := New(cfg)
	if p.CapacityBytes() < 410*1024 {
		t.Fatalf("capacity %d < requested 410KB", p.CapacityBytes())
	}
	if cfg.CellSize != 200 {
		t.Fatalf("CellSize = %d, want 200", cfg.CellSize)
	}
}

// TestRecycledPoolStartsClean: a switch parked between runs keeps its
// pool, recycled with packets buffered and its free lists out of order,
// and the next run's switch re-initialises it in the same memories. Alloc
// on the recycled pool panics; once re-initialised, smaller than before in
// its own memories or larger in new ones, it starts with every cell and
// PD free and never allocated.
func TestRecycledPoolStartsClean(t *testing.T) {
	p := testPool(t, 64)
	for _, cells := range []int{48, 96} {
		q := NewQueue(p)
		var refs []PDRef
		for i := 0; i < 8; i++ {
			refs = append(refs, p.Alloc(150+50*i%450, uint64(i+1)))
		}
		for i, ref := range refs {
			if i%3 == 0 {
				p.Release(ref, false)
			} else {
				q.Enqueue(ref)
			}
		}
		pds := &p.pds[0]
		p.Recycle()
		mustPanic(t, "Alloc on a recycled pool", func() { p.Alloc(100, 99) })

		p.Init(Config{CellSize: 200, NumCells: cells})
		if reused := &p.pds[0] == pds; reused != (cells < 64) {
			t.Fatalf("%d cells after 64: memories reused %v", cells, reused)
		}
		mustPanic(t, "Release of a never-allocated PD", func() { p.Release(PDRef(5), true) })
		p.CheckInvariants()
		seen := map[PDRef]bool{}
		for i := 0; i < cells; i++ {
			ref := p.Alloc(200, uint64(i))
			if ref == NilPD || seen[ref] {
				t.Fatalf("Alloc %d of %d one-cell packets gave %d", i, cells, ref)
			}
			seen[ref] = true
		}
		if p.Alloc(1, 0) != NilPD || p.FreeCells() != 0 || p.FreePDs() != 0 {
			t.Fatalf("after %d one-cell packets: %d cells, %d PDs free", cells, p.FreeCells(), p.FreePDs())
		}
		for ref := range seen {
			if i := int(ref); i%2 == 0 {
				p.Release(ref, true) // the next round's free lists start out of order
			}
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
