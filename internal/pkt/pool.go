package pkt

// Pool is a freelist of Packets for a single simulation engine. The hot
// paths of the simulator (transport senders/receivers, raw injectors)
// allocate millions of packets per run; recycling them through a Pool
// removes that load from the garbage collector entirely.
//
// A Pool is intentionally not synchronized: each Engine is
// single-threaded, so each run owns exactly one Pool (parallel sweeps
// use one Pool per engine). Ownership is linear — a packet must be Put
// back only once, by whichever component consumes it (a host delivering
// it to its flow handler, or an experiment's sink/drop hook). Packets
// that never reach a consumption point (e.g. switch drops in runs that
// don't hook losses) simply fall back to the garbage collector.
type Pool struct {
	free   []*Packet
	lastID uint64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

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
