package pkt

import (
	"math/rand"
	"testing"
)

// fifoOp is one step of a FIFO program: push, pop, peek or clear.
type fifoOp byte

const (
	opPush fifoOp = iota
	opPop
	opPeek
	opClear
	numOps
)

// runFIFO executes a program against a FIFO and against a naive slice
// queue, and fails at the first step where they disagree. Pop and Peek on
// an empty queue are skipped: callers check Len first.
func runFIFO(t *testing.T, prog []fifoOp) {
	t.Helper()
	var f FIFO
	var want []*Packet
	next := uint64(0)
	for step, op := range prog {
		switch op {
		case opPush:
			next++
			p := &Packet{ID: next}
			f.Push(p)
			want = append(want, p)
		case opPop:
			if len(want) == 0 {
				continue
			}
			if got := f.Pop(); got != want[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got.ID, want[0].ID)
			}
			want = want[1:]
		case opPeek:
			if len(want) == 0 {
				continue
			}
			if got := f.Peek(); got != want[0] {
				t.Fatalf("step %d: Peek = %d, want %d", step, got.ID, want[0].ID)
			}
		case opClear:
			if c := f.Clear(); c != len(f.buf) || c < len(want) {
				t.Fatalf("step %d: Clear returned %d with %d queued and a ring of %d", step, c, len(want), len(f.buf))
			}
			for i, p := range f.buf {
				if p != nil {
					t.Fatalf("step %d: Clear left packet %d in slot %d", step, p.ID, i)
				}
			}
			want = want[:0]
		}
		if f.Len() != len(want) {
			t.Fatalf("step %d (%d): Len = %d, want %d", step, op, f.Len(), len(want))
		}
		if n := len(f.buf); n != 0 && n&(n-1) != 0 {
			t.Fatalf("step %d: ring of %d slots is not a power of two", step, n)
		}
		live := 0
		for _, p := range f.buf {
			if p != nil {
				live++
			}
		}
		if live != len(want) {
			t.Fatalf("step %d: %d slots hold packets, %d queued: a popped packet is still referenced", step, live, len(want))
		}
	}
	for len(want) > 0 {
		if got := f.Pop(); got != want[0] {
			t.Fatalf("drain: Pop = %d, want %d", got.ID, want[0].ID)
		}
		want = want[1:]
	}
}

// TestFIFOSeededPrograms checks random programs whose push share drifts,
// so the queue fills, wraps, grows while wrapped and drains, at seeds 1–200.
func TestFIFOSeededPrograms(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]fifoOp, 2000)
		pushShare := 0.3 + 0.5*rng.Float64()
		for i := range prog {
			switch r := rng.Float64(); {
			case r < 0.002:
				prog[i] = opClear
			case r < 0.1:
				prog[i] = opPeek
			case r < 0.1+pushShare*0.9:
				prog[i] = opPush
			default:
				prog[i] = opPop
			}
		}
		runFIFO(t, prog)
	}
}

// TestFIFOGrowsWhileWrapped fills the first ring, moves its head past the
// middle, wraps the tail round to slot 0 and pushes one more, so the grow
// copy has to unwrap two runs of the old ring in order.
func TestFIFOGrowsWhileWrapped(t *testing.T) {
	var prog []fifoOp
	for range 8 {
		prog = append(prog, opPush)
	}
	for range 5 {
		prog = append(prog, opPop)
	}
	for range 5 + 1 + 20 {
		prog = append(prog, opPush, opPeek)
	}
	runFIFO(t, prog)
}

// TestFIFOClearThenReuse: Clear keeps the ring and reports its capacity,
// and the queue works from slot 0 again afterwards, with no further
// allocation while it stays within that capacity.
func TestFIFOClearThenReuse(t *testing.T) {
	var f FIFO
	if f.Clear() != 0 {
		t.Fatal("the zero FIFO has capacity")
	}
	ps := make([]*Packet, 40)
	for i := range ps {
		ps[i] = &Packet{ID: uint64(i + 1)}
	}
	for _, p := range ps[:30] {
		f.Push(p)
	}
	for range 17 {
		f.Pop()
	}
	c := f.Clear()
	if c != 32 || f.Len() != 0 {
		t.Fatalf("Clear = %d with Len %d, want 32 and 0", c, f.Len())
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, p := range ps[:32] {
			f.Push(p)
		}
		for _, p := range ps[:32] {
			if got := f.Pop(); got != p {
				t.Fatalf("after Clear: Pop = %d, want %d", got.ID, p.ID)
			}
		}
	})
	if allocs != 0 || len(f.buf) != 32 {
		t.Fatalf("refilling a cleared ring of 32 allocated %v times and left %d slots", allocs, len(f.buf))
	}
}

// FuzzFIFO runs arbitrary programs, one op per input byte.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 3, 0, 1})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x01\x01\x01\x01\x01\x00\x00\x00\x00\x00\x00\x00\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := make([]fifoOp, len(data))
		for i, b := range data {
			// Weight pushes so inputs reach rings past the first growth.
			if prog[i] = fifoOp(b % 8); prog[i] >= numOps {
				prog[i] = opPush
			}
		}
		runFIFO(t, prog)
	})
}
