package pkt

// FIFO is a packet queue on a power-of-two ring that grows only when full:
// a NIC's transmit queue, or a switch queue's packets beside its PD list.
// The zero value is an empty queue.
type FIFO struct {
	buf  []*Packet // len(buf) is 0 or a power of two
	head int
	n    int
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return f.n }

// Push appends p.
func (f *FIFO) Push(p *Packet) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = p
	f.n++
}

// grow doubles the ring, unwrapping it so the head lands at slot 0. It
// stays out of line so the ring's one allocation is charged to this cold
// step, not to the datapath functions that push.
//
//go:noinline
func (f *FIFO) grow() {
	buf := make([]*Packet, max(2*len(f.buf), 8))
	mask := len(f.buf) - 1
	for i := range f.n {
		buf[i] = f.buf[(f.head+i)&mask]
	}
	f.buf, f.head = buf, 0
}

// Peek returns the head packet.
func (f *FIFO) Peek() *Packet { return f.buf[f.head] }

// Pop removes and returns the head packet.
func (f *FIFO) Pop() *Packet {
	p := f.buf[f.head]
	f.buf[f.head] = nil // release for GC
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return p
}

// Clear empties f, keeping its ring, and returns the ring's capacity.
func (f *FIFO) Clear() int {
	clear(f.buf)
	f.head, f.n = 0, 0
	return len(f.buf)
}
