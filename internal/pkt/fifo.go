package pkt

// FIFO is a packet queue linked through the packets themselves, as a
// switch links its packet descriptors: a NIC's transmit queue, or a switch
// queue, whose list of packets is its PD list. Queuing a packet never allocates.
// A packet is in at most one FIFO at a time. The zero value is an empty
// queue.
type FIFO struct {
	head, tail *Packet
	n          int
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return f.n }

// Push appends p. It drops whatever link p carries first: a packet copied
// whole while queued, as a lossy link duplicates one, carries a stale one.
func (f *FIFO) Push(p *Packet) {
	p.next = nil
	if f.tail == nil {
		f.head = p
	} else {
		f.tail.next = p
	}
	f.tail = p
	f.n++
}

// Peek returns the head packet.
func (f *FIFO) Peek() *Packet { return f.head }

// Pop removes and returns the head packet, unlinked.
func (f *FIFO) Pop() *Packet {
	p := f.head
	f.head, p.next = p.next, nil
	if f.head == nil {
		f.tail = nil
	}
	f.n--
	return p
}
