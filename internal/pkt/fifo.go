package pkt

// FIFO is a slice-backed packet queue with amortized O(1) operations: a
// NIC's transmit queue, or a switch queue's packets beside its PD list.
type FIFO struct {
	buf  []*Packet
	head int
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return len(f.buf) - f.head }

// Push appends p.
func (f *FIFO) Push(p *Packet) { f.buf = append(f.buf, p) }

// Peek returns the head packet.
func (f *FIFO) Peek() *Packet { return f.buf[f.head] }

// Pop removes and returns the head packet.
func (f *FIFO) Pop() *Packet {
	p := f.buf[f.head]
	f.buf[f.head] = nil // release for GC
	f.head++
	// Compact once the dead prefix dominates.
	if f.head > 64 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return p
}

// Clear empties f, keeping its buffer, and returns the buffer's capacity.
func (f *FIFO) Clear() int {
	clear(f.buf[:cap(f.buf)])
	f.buf, f.head = f.buf[:0], 0
	return cap(f.buf)
}
