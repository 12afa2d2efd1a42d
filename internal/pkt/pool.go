package pkt

import "sync/atomic"

// Pool is a freelist of Packets for a single simulation engine. The hot
// paths of the simulator (transport senders/receivers, raw injectors)
// allocate millions of packets per run; recycling them through a Pool
// removes that load from the garbage collector entirely.
//
// A Pool is intentionally not synchronized: each Engine is
// single-threaded, so each run owns exactly one Pool (parallel sweeps
// use one Pool per engine). Ownership is linear: a packet is Put back
// once, by whichever component consumes it (a host delivering it to its
// flow handler, a lossy link, a switch's sink or drop hook), and nothing
// holds it after that, for Recycle hands the free list to the next run.
// Packets still in flight when a run ends fall back to the collector.
type Pool struct {
	free   []*Packet
	lastID uint64
}

// spare is the last recycled pool, its free list cut to 2^15 packets
// (~3.3 MB): a fabric run's working set, kept whole across small runs.
var spare atomic.Pointer[Pool]

// NewPool returns a pool whose IDs start at 1, with the free packets of the
// last recycled pool.
func NewPool() *Pool {
	p := &Pool{}
	if s := spare.Swap(nil); s != nil {
		p.free, s.free = s.free, nil
	}
	return p
}

// Recycle parks the free packets for the next NewPool; pl is done with.
func (pl *Pool) Recycle() {
	n := min(len(pl.free), 1<<15)
	clear(pl.free[n:])
	pl.free = pl.free[:n]
	spare.Store(pl)
}

// Get returns a zeroed packet, recycling a freed one when available.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		return p
	}
	return &Packet{}
}

// NextID returns a packet ID no earlier call on this pool returned, never
// zero. One run owns one pool, so the IDs a run stamps depend on that run
// alone, whatever else the process is simulating.
func (pl *Pool) NextID() uint64 {
	pl.lastID++
	return pl.lastID
}

// Put returns p to the pool. The packet is zeroed immediately so stale
// field values can never leak into a reuse.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	*p = Packet{}
	pl.free = append(pl.free, p)
}
