// Package cellmem models the on-chip packet-buffer structure of a
// shared-memory switch as described in §2.1 of the Occamy paper.
//
// Three physically separate memories are modeled:
//
//   - cell data memory: fixed-size cells holding packet payload,
//   - cell pointer memory: per-cell next pointers, which also thread the
//     free-cell list,
//   - PD memory: packet descriptors (one per buffered packet) that are
//     linked into per-queue lists.
//
// The structure is what gives head-drop its defining property: dropping a
// buffered packet dequeues its PD and returns its cell pointers to the
// free list without ever touching cell data memory. Meters on each memory
// let tests assert exactly that.
//
// The memories outlive a run: Recycle empties a pool and Init rebuilds it
// in the same memories, so they travel with the switch that is parked
// between runs and serve the next run's switch.
package cellmem

import "fmt"

// nilIdx marks the end of every linked list in the pool.
const nilIdx int32 = -1

// Config sizes the three buffer memories.
type Config struct {
	// CellSize is the payload bytes per cell. The paper (and its DPDK
	// prototype) use 200-byte cells.
	CellSize int
	// NumCells is the total number of cells; NumCells*CellSize is the
	// shared buffer capacity in bytes.
	NumCells int
	// NumPDs is the number of packet descriptors. Zero means one PD per
	// cell (a packet occupies at least one cell, so this never limits).
	NumPDs int
}

// DefaultConfig mirrors the DPDK prototype: 200B cells.
func DefaultConfig(bufferBytes int) Config {
	return Config{CellSize: 200, NumCells: (bufferBytes + 199) / 200}
}

// PD is a packet descriptor: packet metadata plus the head of the
// packet's cell-pointer list.
type PD struct {
	Len      int32  // packet length in bytes
	cellHead int32  // first cell of the packet
	cellTail int32  // last cell (for O(1) free-list splicing)
	cells    int32  // number of cells occupied
	next     int32  // next PD in the queue's linked list
	PktID    uint64 // simulator packet identity carried through the buffer
	Meta     uint64 // opaque caller metadata (e.g. ECN mark, timestamps index)
}

// PDRef identifies a descriptor inside the pool.
type PDRef int32

// NilPD is the zero reference (no descriptor).
const NilPD PDRef = PDRef(nilIdx)

// Meters counts accesses to each physical memory. All counts are in
// units of one access (one cell read/write, one pointer op, one PD op).
type Meters struct {
	CellDataWrites int64 // cells written on packet admission
	CellDataReads  int64 // cells read on normal dequeue (never on head-drop)
	PtrOps         int64 // cell-pointer memory reads+writes
	PDOps          int64 // PD memory reads+writes
}

// Pool is the shared packet buffer. It is single-threaded, like the rest
// of the simulator.
type Pool struct {
	cfg Config

	// Cell pointer memory. nextCell[i] threads either a packet's cell
	// list or the free-cell list.
	nextCell []int32
	freeCell int32
	freeCnt  int32

	// PD memory and its free list.
	pds    []PD
	freePD int32
	pdFree int32

	meters Meters
}

// New builds a pool with all cells and PDs free.
func New(cfg Config) *Pool {
	p := new(Pool)
	p.Init(cfg)
	return p
}

// Init re-initialises p with all cells and PDs free, in the memories p
// kept when it was recycled if they are large enough.
func (p *Pool) Init(cfg Config) {
	if cfg.CellSize <= 0 {
		panic("cellmem: CellSize must be positive")
	}
	if cfg.NumCells <= 0 {
		panic("cellmem: NumCells must be positive")
	}
	if cfg.NumPDs == 0 {
		cfg.NumPDs = cfg.NumCells
	}
	if cap(p.nextCell) < cfg.NumCells {
		p.nextCell = make([]int32, cfg.NumCells)
	}
	if cap(p.pds) < cfg.NumPDs {
		p.pds = make([]PD, cfg.NumPDs)
	}
	*p = Pool{cfg: cfg, nextCell: p.nextCell[:cfg.NumCells], pds: p.pds[:cfg.NumPDs]}
	for i := 0; i < cfg.NumCells-1; i++ {
		p.nextCell[i] = int32(i + 1)
	}
	p.nextCell[cfg.NumCells-1] = nilIdx
	p.freeCnt = int32(cfg.NumCells)

	for i := range p.pds {
		p.pds[i] = PD{next: int32(i + 1)}
	}
	p.pds[cfg.NumPDs-1].next = nilIdx
	p.pdFree = int32(cfg.NumPDs)
}

// Recycle drops every buffered packet and keeps the memories for the next
// Init, unless they outgrew 2^15 PDs, more than a full-scale raw catalog
// run needs. Alloc, Release and queue operations on p panic until then.
func (p *Pool) Recycle() {
	if cap(p.pds) > 1<<15 {
		*p = Pool{}
		return
	}
	*p = Pool{nextCell: p.nextCell[:0], pds: p.pds[:0]}
}

// Config returns the pool's configuration.
func (p *Pool) Config() Config { return p.cfg }

// CapacityBytes is the total shared buffer size in bytes.
func (p *Pool) CapacityBytes() int { return p.cfg.NumCells * p.cfg.CellSize }

// FreeCells returns the number of unallocated cells.
func (p *Pool) FreeCells() int { return int(p.freeCnt) }

// FreeBytes returns the unallocated capacity in bytes.
func (p *Pool) FreeBytes() int { return int(p.freeCnt) * p.cfg.CellSize }

// UsedCells returns the number of allocated cells.
func (p *Pool) UsedCells() int { return p.cfg.NumCells - int(p.freeCnt) }

// FreePDs returns the number of unallocated packet descriptors.
func (p *Pool) FreePDs() int { return int(p.pdFree) }

// Meters returns a snapshot of the access counters.
func (p *Pool) Meters() Meters { return p.meters }

// CellsFor reports how many cells a packet of n bytes occupies.
func (p *Pool) CellsFor(n int) int {
	if n <= 0 {
		return 1 // even a zero-length control packet occupies one cell
	}
	return (n + p.cfg.CellSize - 1) / p.cfg.CellSize
}

// Alloc admits a packet of pktLen bytes into the buffer: it pops the
// needed cells off the free-cell list, links them, writes the cell data,
// and fills a fresh PD. It returns NilPD when cells or PDs are exhausted.
func (p *Pool) Alloc(pktLen int, pktID uint64) PDRef {
	need := int32(p.CellsFor(pktLen))
	if need > p.freeCnt || p.pdFree == 0 {
		return NilPD
	}
	// Pop `need` cells. The chain popped off the free list is already
	// linked in order, so we can reuse it as the packet's cell list.
	head := p.freeCell
	tail := head
	for i := int32(1); i < need; i++ {
		tail = p.nextCell[tail]
	}
	p.freeCell = p.nextCell[tail]
	p.nextCell[tail] = nilIdx
	p.freeCnt -= need
	p.meters.PtrOps += int64(need)         // pointer pops
	p.meters.CellDataWrites += int64(need) // payload written into cells

	// Pop a PD.
	pdi := p.freePD
	p.freePD = p.pds[pdi].next
	p.pdFree--
	p.meters.PDOps++

	pd := &p.pds[pdi]
	pd.Len = int32(pktLen)
	pd.cellHead = head
	pd.cellTail = tail
	pd.cells = need
	pd.next = nilIdx
	pd.PktID = pktID
	pd.Meta = 0
	return PDRef(pdi)
}

// Release frees the packet's cells and descriptor. readData selects the
// normal-dequeue path (cell data memory is read for transmission) versus
// the head-drop path (cell data memory untouched, per §3.2 of the paper).
func (p *Pool) Release(ref PDRef, readData bool) {
	pd := p.pd(ref)
	if pd.cells == 0 {
		panic("cellmem: double release of PD")
	}
	// Return the whole cell chain to the free list in O(1).
	p.nextCell[pd.cellTail] = p.freeCell
	p.freeCell = pd.cellHead
	p.freeCnt += pd.cells
	p.meters.PtrOps += int64(pd.cells) // pointer pushes back to free list
	if readData {
		p.meters.CellDataReads += int64(pd.cells)
	}

	// Return the PD to its free list.
	idx := int32(ref)
	pd.cells = 0
	pd.cellHead, pd.cellTail = nilIdx, nilIdx
	pd.next = p.freePD
	p.freePD = idx
	p.pdFree++
	p.meters.PDOps++
}

// Len returns the buffered packet's length in bytes.
func (p *Pool) Len(ref PDRef) int { return int(p.pd(ref).Len) }

// PktID returns the packet identity stored at admission.
func (p *Pool) PktID(ref PDRef) uint64 { return p.pd(ref).PktID }

// Cells returns the number of cells the packet occupies.
func (p *Pool) Cells(ref PDRef) int { return int(p.pd(ref).cells) }

// Meta returns the caller metadata word.
func (p *Pool) Meta(ref PDRef) uint64 { return p.pd(ref).Meta }

// SetMeta stores a caller metadata word on the descriptor.
func (p *Pool) SetMeta(ref PDRef, m uint64) { p.pd(ref).Meta = m }

func (p *Pool) pd(ref PDRef) *PD {
	if ref == NilPD || int(ref) >= len(p.pds) {
		panic(fmt.Sprintf("cellmem: invalid PD ref %d", int32(ref)))
	}
	return &p.pds[int(ref)]
}

// CheckInvariants panics with a description if cell/PD conservation is
// violated. Tests call it after random operation sequences.
func (p *Pool) CheckInvariants() {
	// Walk the free-cell list and confirm its length matches freeCnt.
	n := int32(0)
	for i := p.freeCell; i != nilIdx; i = p.nextCell[i] {
		n++
		if n > int32(p.cfg.NumCells) {
			panic("cellmem: free-cell list cycle")
		}
	}
	if n != p.freeCnt {
		panic(fmt.Sprintf("cellmem: free list length %d != freeCnt %d", n, p.freeCnt))
	}
	m := int32(0)
	for i := p.freePD; i != nilIdx; i = p.pds[i].next {
		m++
		if m > int32(len(p.pds)) {
			panic("cellmem: free-PD list cycle")
		}
	}
	if m != p.pdFree {
		panic(fmt.Sprintf("cellmem: free PD list length %d != pdFree %d", m, p.pdFree))
	}
}
