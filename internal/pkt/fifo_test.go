package pkt

import (
	"math/rand"
	"testing"
	"unsafe"
)

// fifoOp is one step of a FIFO program: push a fresh packet, pop, peek, or
// push again a packet popped earlier, as a recycled packet comes back.
type fifoOp byte

const (
	opPush fifoOp = iota
	opPop
	opPeek
	opRepush
	numOps
)

// checkLinks walks f from head to tail and fails unless it holds exactly
// want, in order, ending at the tail with no link past it.
func checkLinks(t *testing.T, step int, f *FIFO, want []*Packet) {
	t.Helper()
	if f.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, want %d", step, f.Len(), len(want))
	}
	p := f.head
	for i, w := range want {
		if p != w {
			t.Fatalf("step %d: link %d reaches %v, want packet %d", step, i, p, w.ID)
		}
		p = p.next
	}
	if p != nil {
		t.Fatalf("step %d: packet %d is linked past the %d queued", step, p.ID, len(want))
	}
	if len(want) == 0 && f.tail != nil || len(want) > 0 && f.tail != want[len(want)-1] {
		t.Fatalf("step %d: tail %v is not the last of %d queued", step, f.tail, len(want))
	}
}

// runFIFO executes a program against a FIFO and against a naive slice
// queue, and fails at the first step where they disagree. Pop and Peek on
// an empty queue are skipped: callers check Len first.
func runFIFO(t *testing.T, prog []fifoOp) {
	t.Helper()
	var f FIFO
	var want, popped []*Packet
	next := uint64(0)
	for step, op := range prog {
		switch op {
		case opPush, opRepush:
			var p *Packet
			if n := len(popped); op == opRepush && n > 0 {
				p, popped = popped[n-1], popped[:n-1]
			} else {
				next++
				p = &Packet{ID: next}
			}
			f.Push(p)
			want = append(want, p)
		case opPop:
			if len(want) == 0 {
				continue
			}
			got := f.Pop()
			if got != want[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got.ID, want[0].ID)
			}
			if got.next != nil {
				t.Fatalf("step %d: popped packet %d still links to %d", step, got.ID, got.next.ID)
			}
			want, popped = want[1:], append(popped, got)
		case opPeek:
			if len(want) == 0 {
				continue
			}
			if got := f.Peek(); got != want[0] {
				t.Fatalf("step %d: Peek = %d, want %d", step, got.ID, want[0].ID)
			}
		}
		checkLinks(t, step, &f, want)
	}
	for len(want) > 0 {
		if got := f.Pop(); got != want[0] {
			t.Fatalf("drain: Pop = %d, want %d", got.ID, want[0].ID)
		}
		want = want[1:]
	}
	checkLinks(t, len(prog), &f, nil)
}

// TestFIFOSeededPrograms checks random programs whose push share drifts,
// so the queue fills, empties and refills with recycled packets, at seeds
// 1–200.
func TestFIFOSeededPrograms(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]fifoOp, 2000)
		pushShare := 0.3 + 0.5*rng.Float64()
		for i := range prog {
			switch r := rng.Float64(); {
			case r < 0.1:
				prog[i] = opPeek
			case r < 0.1+pushShare*0.45:
				prog[i] = opPush
			case r < 0.1+pushShare*0.9:
				prog[i] = opRepush
			default:
				prog[i] = opPop
			}
		}
		runFIFO(t, prog)
	}
}

// TestFIFOClonedWhileQueued: a packet copied whole while queued, as a
// lossy link duplicates one, carries the original's link; pushing the
// copy onto a second queue must leave both queues intact.
func TestFIFOClonedWhileQueued(t *testing.T) {
	var a, b FIFO
	ps := []*Packet{{ID: 1}, {ID: 2}, {ID: 3}}
	for _, p := range ps {
		a.Push(p)
	}
	dup := new(Packet)
	*dup = *ps[1] // links to ps[2]
	b.Push(dup)
	b.Push(&Packet{ID: 4})
	checkLinks(t, 0, &a, ps)
	checkLinks(t, 0, &b, []*Packet{dup, b.tail})
	for _, p := range ps {
		if got := a.Pop(); got != p {
			t.Fatalf("a: Pop = %d, want %d", got.ID, p.ID)
		}
	}
	if got := b.Pop(); got != dup || b.Peek().ID != 4 || b.Len() != 1 {
		t.Fatalf("b: Pop = %v, then %d queued headed by %v", got, b.Len(), b.Peek())
	}
}

// TestFIFOAllocatesNothing: queuing links the packets, so pushing and
// popping any number of them allocates nothing, from the zero queue on.
func TestFIFOAllocatesNothing(t *testing.T) {
	var f FIFO
	ps := make([]*Packet, 40)
	for i := range ps {
		ps[i] = &Packet{ID: uint64(i + 1)}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, p := range ps {
			f.Push(p)
		}
		for _, p := range ps {
			if got := f.Pop(); got != p {
				t.Fatalf("Pop = %d, want %d", got.ID, p.ID)
			}
		}
	})
	if allocs != 0 || f.Len() != 0 {
		t.Fatalf("40 pushes and pops allocated %v times and left %d queued", allocs, f.Len())
	}
}

// TestPacketSize pins the packet at 96 bytes on 64-bit platforms: the
// queue link fits beside the grouped flags, and a field added carelessly
// grows every packet in flight.
func TestPacketSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(Packet{}); n != 96 {
		t.Fatalf("Packet is %d bytes, want 96", n)
	}
}

// FuzzFIFO runs arbitrary programs, one op per input byte.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 0, 1, 1, 1, 3})
	f.Add([]byte("\x00\x00\x00\x00\x00\x01\x01\x01\x01\x01\x01\x03\x03\x00\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := make([]fifoOp, len(data))
		for i, b := range data {
			// Weight pushes so inputs reach long queues.
			if prog[i] = fifoOp(b % 8); prog[i] >= numOps {
				prog[i] = opPush
			}
		}
		runFIFO(t, prog)
	})
}
