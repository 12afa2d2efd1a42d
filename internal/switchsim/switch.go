// Package switchsim models an on-chip shared-memory switch: a traffic
// manager whose shared buffer is a pool of fixed-size cells, pluggable
// buffer management (internal/bm, internal/core), per-port
// egress schedulers, and ECN marking. It is the substrate for every
// experiment in the paper: the P4/Tofino prototype scenarios, the DPDK
// software switch, and the switches inside the leaf–spine simulations.
//
// A run's switches outlive it: Park hands them, with the chunk pool their
// recorders wrote into, to the next run as one set through a single
// atomic slot, and the next run's New and NewRecorders build in them.
package switchsim

import (
	"fmt"
	"slices"
	"sync/atomic"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/hw"
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// DropReason classifies packet losses for the statistics hooks.
type DropReason int

const (
	// DropAdmission: the BM policy rejected the arriving packet.
	DropAdmission DropReason = iota
	// DropNoMemory: the policy admitted it but the shared buffer had
	// fewer free cells than the packet takes (cell-rounding slack: the
	// policies count bytes, the buffer hands out whole cells).
	DropNoMemory
	// DropExpelled: a preemptive policy head-dropped a buffered packet.
	DropExpelled
)

func (r DropReason) String() string {
	switch r {
	case DropAdmission:
		return "admission"
	case DropNoMemory:
		return "nomem"
	default:
		return "expelled"
	}
}

// Router maps an arriving packet to its egress port. The traffic class
// (queue within the port) is the packet's Priority field.
type Router func(p *pkt.Packet) (port int)

// MaxClassesPerPort is the width of a port's backlog mask.
const MaxClassesPerPort = 64

// Config describes a switch.
type Config struct {
	// Ports is the number of egress ports.
	Ports int
	// ClassesPerPort is the number of traffic-class queues per port.
	ClassesPerPort int
	// BufferBytes is the shared buffer capacity: BufferBytes/CellBytes
	// cells, rounded up.
	BufferBytes int
	// CellBytes is the buffer cell size; 0 defaults to 200 (the paper's
	// prototypes).
	CellBytes int
	// Policy is the admission policy (DT, ABM, Occamy, Pushout, ...).
	Policy bm.Policy
	// Occamy, when non-nil, enables the reactive expulsion engine with
	// this configuration. TokenRate 0 is replaced by the switch's
	// aggregate memory bandwidth in cells/second. Policy must then be a
	// bm.ClassPolicy, as core.New's is.
	Occamy *core.Config
	// ECNThresholdBytes enables ECN marking when a queue exceeds this
	// length at enqueue. 0 disables marking.
	ECNThresholdBytes int
	// Scheduler selects the per-port discipline across classes.
	Scheduler SchedKind
	// DRRQuantum is the DRR credit per visit; 0 defaults to 2×1514.
	DRRQuantum int
}

// Stats aggregates switch-level counters.
type Stats struct {
	RxPackets      int64
	TxPackets      int64
	TxBytes        int64
	DropsAdmission int64
	DropsNoMemory  int64
	DropsExpelled  int64
	ECNMarked      int64
}

// Drops returns total losses of arriving packets (not expulsions).
func (s Stats) Drops() int64 { return s.DropsAdmission + s.DropsNoMemory }

// PortStats aggregates egress-side counters for one port: transmissions
// out of it, and losses/marks of packets destined to it. (Rx has no
// per-port breakdown — the switch model routes on arrival, so arrivals
// are only attributable to an egress queue.)
type PortStats struct {
	TxPackets      int64
	TxBytes        int64
	DropsAdmission int64
	DropsNoMemory  int64
	DropsExpelled  int64
	ECNMarked      int64
}

// Drops returns the port's total arrival losses (not expulsions).
func (s PortStats) Drops() int64 { return s.DropsAdmission + s.DropsNoMemory }

// QueueStats aggregates egress-side counters for one (port, class)
// queue: transmissions out of it, and losses/marks of packets destined
// to it. Summed over a port's classes they reproduce the PortStats
// fields exactly, the same way PortStats sums to Stats (the scenario
// property tests assert the whole chain).
type QueueStats struct {
	TxPackets      int64
	TxBytes        int64
	DropsAdmission int64
	DropsNoMemory  int64
	DropsExpelled  int64
	ECNMarked      int64
}

// Drops returns the queue's total arrival losses (not expulsions).
func (s QueueStats) Drops() int64 { return s.DropsAdmission + s.DropsNoMemory }

// classQueue is one traffic-class queue. meta, the list linked through
// the buffered packets, is the paper's per-queue PD list (§2.1, Fig 9),
// and bytes its length in bytes, the quantity BM thresholds compare
// against; the cells a packet takes are only counted, in the switch's
// freeCells. No cell data is modelled: no output reads it, and memBW
// carries the bandwidth its reads and writes would take. drain, the
// queue's drain-rate estimator, exists only when the policy declares that
// it reads DequeueRate (bm.ABM's ReadsDequeueRate marker, checked once in
// New); under every other policy nothing would read it.
type classQueue struct {
	meta  pkt.FIFO
	bytes int
	prio  int
	drain *rateMeter
}

// port is one egress port: a link (rate + propagation + sink) and the
// per-class queues. It implements sim.Handler for its two per-packet
// events — tx-done (nil arg) and far-end delivery (*pkt.Packet arg) — so
// the transmit path schedules without closure allocations.
type port struct {
	id      int
	sw      *Switch
	rateBps float64
	prop    sim.Duration
	sink    func(*pkt.Packet)
	busy    bool
	classes []*classQueue
	backlog uint64 // bit c: classes[c] holds a packet, zero-length ones too
	sched   scheduler
}

// OnEvent implements sim.Handler: a packet arg is a delivery at the far
// end of the link; a nil arg marks the end of serialization, freeing the
// link for the next packet.
func (pt *port) OnEvent(arg any) {
	if p, ok := arg.(*pkt.Packet); ok {
		pt.sink(p)
		return
	}
	pt.busy = false
	pt.sw.tryTransmit(pt)
}

// Switch is a shared-memory switch instance.
type Switch struct {
	name     string
	eng      *sim.Engine
	cfg      Config
	ports    []*port
	flat     []*classQueue // all queues, indexed port*ClassesPerPort+class
	policy   bm.Policy
	classPol bm.ClassPolicy      // policy, when its limit is per class
	preempt  core.Preemptor      // non-nil when policy can make room at admission
	preemptQ core.QueuePreemptor // arrival-queue-aware variant (POT, QPO)
	occ      *core.Engine        // non-nil when Occamy expulsion is enabled
	router   Router

	// backlogged marks the queues holding at least one byte, and inClass[c]
	// counts those of class c. Every change to a queue's length re-derives
	// both on the spot (setBacklogged), so the preemptive policies scan
	// these queues instead of asking all of them for their length
	// (core.TM.Backlogged), and ABM reads n_p without a scan.
	backlogged *hw.Bitmap
	inClass    []int

	totalBytes int // sum of queue lengths (packet bytes, not cell-rounded)
	freeCells  int // the shared buffer's cells no buffered packet takes
	stats      Stats
	portStats  []PortStats
	queueStats []QueueStats // indexed port*ClassesPerPort+class

	// Memory-bandwidth meter: cell operations (reads+writes) per second,
	// for the Fig 7(b) utilization measurement. Nil until its one reader
	// (scenario's dropUtilSampler) calls EnableMemBandwidthMeter.
	memBW *rateMeter

	// DropHook, when set, observes every loss (arrival drops and
	// expulsions). Experiments use it for loss-rate and utilization-on-
	// drop measurements.
	DropHook func(p *pkt.Packet, q int, reason DropReason)
	// MarkHook, when set, observes ECN marks.
	MarkHook func(p *pkt.Packet, q int)
}

// parkedSet is the last run's switch set, handed to the next run whole:
// its switches, each emptied but for its queue structs, and the chunk
// pool its recorders drew from. Each New takes the next parked switch,
// and NewRecorders the chunks; the next Park replaces whatever is left,
// never merging with it.
type parkedSet struct {
	switches []*Switch // in reverse: New takes the last
	chunks   *chunkPool
}

var lastRun atomic.Pointer[parkedSet] //occamy:concurrent a handoff between runs, never touched inside one

// unpark lets take remove what it needs from the parked set, and puts the
// rest back unless a newer set was parked meanwhile.
func unpark(take func(*parkedSet)) {
	if set := lastRun.Swap(nil); set != nil { //occamy:concurrent see lastRun
		take(set)
		lastRun.CompareAndSwap(nil, set) //occamy:concurrent see lastRun
	}
}

// Park hands a finished or canceled run's switches, and the chunk pool of
// the recorders watching them, to the next run as one set. Of a switch
// only its queue structs pass on: every buffered packet is dropped without
// a hook. recs' series are left as they are.
func Park(switches []*Switch, recs []*Recorder) {
	for _, sw := range switches {
		sw.park()
	}
	set := lastRun.Swap(nil) //occamy:concurrent see lastRun
	if set == nil {
		set = new(parkedSet)
	}
	clear(set.switches[:cap(set.switches)])
	set.switches = append(set.switches[:0], switches...)
	slices.Reverse(set.switches)
	set.chunks = nil
	if len(recs) > 0 {
		set.chunks = recs[0].chunks.rewind()
	}
	lastRun.Store(set) //occamy:concurrent see lastRun
}

// New builds a switch. Ports must then be attached with AttachPort, and
// a Router installed with SetRouter, before traffic arrives.
func New(name string, eng *sim.Engine, cfg Config) *Switch {
	if cfg.Ports <= 0 || cfg.ClassesPerPort <= 0 || cfg.ClassesPerPort > MaxClassesPerPort {
		panic("switchsim: need at least one port, and 1 to 64 classes per port")
	}
	if cfg.BufferBytes <= 0 || cfg.CellBytes < 0 {
		panic("switchsim: BufferBytes must be positive, and CellBytes positive or 0 for the default")
	}
	if cfg.CellBytes == 0 {
		cfg.CellBytes = 200
	}
	if cfg.Policy == nil {
		panic("switchsim: Policy is required")
	}
	var parked *Switch
	unpark(func(set *parkedSet) {
		if n := len(set.switches); n > 0 {
			parked, set.switches[n-1], set.switches = set.switches[n-1], nil, set.switches[:n-1]
		}
	})
	if parked == nil {
		parked = new(Switch)
	}
	s := &Switch{
		name:       name,
		eng:        eng,
		cfg:        cfg,
		policy:     cfg.Policy,
		backlogged: hw.NewBitmap(cfg.Ports * cfg.ClassesPerPort),
		inClass:    make([]int, cfg.ClassesPerPort),
	}
	_, readsDrain := cfg.Policy.(interface{ ReadsDequeueRate() })
	s.classPol, _ = cfg.Policy.(bm.ClassPolicy)
	if cfg.Occamy != nil && s.classPol == nil {
		panic(fmt.Sprintf("switchsim: Occamy expulsion needs a per-class threshold, and %s has none", cfg.Policy.Name()))
	}
	if p, ok := cfg.Policy.(core.Preemptor); ok {
		s.preempt = p
	}
	if p, ok := cfg.Policy.(core.QueuePreemptor); ok {
		s.preemptQ = p
	}
	s.portStats = make([]PortStats, cfg.Ports)
	s.queueStats = make([]QueueStats, cfg.Ports*cfg.ClassesPerPort)
	s.ports = make([]*port, cfg.Ports)
	s.freeCells = s.cellsFor(cfg.BufferBytes)
	nc := cfg.ClassesPerPort
	s.flat = slices.Grow(parked.flat[:0], cfg.Ports*nc)[:cfg.Ports*nc]
	*parked = Switch{} // the last run keeps no way into what moved
	for q, cq := range s.flat {
		if cq == nil {
			cq = new(classQueue)
			s.flat[q] = cq
		}
		*cq = classQueue{prio: q % nc}
		if readsDrain {
			cq.drain = newRateMeter()
		}
	}
	for i := range s.ports {
		s.ports[i] = &port{id: i, sw: s, sched: newScheduler(cfg.Scheduler, nc, cfg.DRRQuantum), classes: s.flat[i*nc : (i+1)*nc]}
	}
	return s
}

// park drops every buffered packet and empties s but for its queue
// structs.
func (s *Switch) park() {
	for _, cq := range s.flat {
		*cq = classQueue{}
	}
	*s = Switch{flat: s.flat}
}

// AttachPort wires port i to a link: egress rate in bits/sec,
// propagation delay, and the receiver's delivery function. All ports
// must be attached before traffic arrives: the Occamy expulsion engine
// is derived exactly once, on first use, with a token rate computed
// from every attached port.
func (s *Switch) AttachPort(i int, rateBps float64, prop sim.Duration, sink func(*pkt.Packet)) {
	if rateBps <= 0 {
		panic("switchsim: port rate must be positive")
	}
	if s.occ != nil {
		panic("switchsim: AttachPort after the expulsion engine was finalized")
	}
	p := s.ports[i]
	p.rateBps = rateBps
	p.prop = prop
	p.sink = sink
}

// ensureExpulsion derives the Occamy expulsion engine on first use and
// returns it (nil when expulsion is disabled). Deriving lazily — rather
// than on every AttachPort — means the token rate reflects the
// aggregate memory bandwidth of *all* attached ports, and the engine's
// token/arbiter/stats state is never rebuilt and discarded mid-wiring.
func (s *Switch) ensureExpulsion() *core.Engine {
	if s.occ == nil && s.cfg.Occamy != nil {
		occCfg := *s.cfg.Occamy
		if occCfg.TokenRate == 0 {
			total := 0.0
			for _, pt := range s.ports {
				total += pt.rateBps
			}
			occCfg.TokenRate = total / 8 / float64(s.cfg.CellBytes)
		}
		s.occ = core.NewEngine(s, occCfg)
	}
	return s.occ
}

// SetRouter installs the egress-port lookup.
func (s *Switch) SetRouter(r Router) { s.router = r }

// Name returns the switch's name (for experiment output).
func (s *Switch) Name() string { return s.name }

// Stats returns a snapshot of the counters.
func (s *Switch) Stats() Stats { return s.stats }

// NumPorts returns the egress port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// PortStats returns a snapshot of port i's egress counters. Summed over
// all ports they reproduce the switch-level Stats tx/drop/mark fields
// exactly (the scenario property tests assert it).
func (s *Switch) PortStats(i int) PortStats { return s.portStats[i] }

// QueueStats returns a snapshot of queue q's egress counters (flat
// index port*ClassesPerPort+class). Summed over a port's classes they
// reproduce that port's PortStats tx/drop/mark fields exactly.
func (s *Switch) QueueStats(q int) QueueStats { return s.queueStats[q] }

// BufferedPackets returns the number of packets currently buffered across
// all queues. Together with Stats it closes the packet-accounting books:
// RxPackets == TxPackets + Drops() + DropsExpelled + BufferedPackets()
// must hold at any instant (the scenario smoke tests assert it).
func (s *Switch) BufferedPackets() int {
	n := 0
	for _, cq := range s.flat {
		n += cq.meta.Len()
	}
	return n
}

// Expulsion returns the Occamy engine, deriving it on first call, or
// nil when expulsion is disabled. Call only after every port is
// attached: the call finalizes the engine's token rate.
func (s *Switch) Expulsion() *core.Engine { return s.ensureExpulsion() }

// ClassesPerPort returns the number of traffic-class queues per port.
func (s *Switch) ClassesPerPort() int { return s.cfg.ClassesPerPort }

// Policy returns the installed admission policy (scenario assembly wires
// clock-dependent policies like EDT/TDT through it after construction).
func (s *Switch) Policy() bm.Policy { return s.policy }

// qindex flattens (port, class) to the global queue index.
func (s *Switch) qindex(portID, class int) int {
	return portID*s.cfg.ClassesPerPort + class
}

// --- bm.State implementation -------------------------------------------

// Capacity implements bm.State.
func (s *Switch) Capacity() int { return s.cfg.BufferBytes }

// Occupancy implements bm.State.
func (s *Switch) Occupancy() int { return s.totalBytes }

// NumQueues implements bm.State.
func (s *Switch) NumQueues() int { return len(s.flat) }

// QueueLen implements bm.State and core.TM.
func (s *Switch) QueueLen(q int) int { return s.flat[q].bytes }

// QueuePriority implements bm.State.
func (s *Switch) QueuePriority(q int) int { return s.flat[q].prio }

// BackloggedInClass implements bm.State.
func (s *Switch) BackloggedInClass(c int) int { return s.inClass[c] }

// DequeueRate implements bm.State: the queue's recent drain rate
// normalized to its port capacity. The drain meters exist only under a
// policy with the ReadsDequeueRate marker; any other caller panics
// rather than read a history that was never kept.
func (s *Switch) DequeueRate(q int) float64 {
	portID := q / s.cfg.ClassesPerPort
	p := s.ports[portID]
	if p.rateBps <= 0 {
		return 0
	}
	drain := s.flat[q].drain
	if drain == nil {
		panic("switchsim: DequeueRate without drain meters: the policy must declare ReadsDequeueRate()")
	}
	return drain.rate(s.eng.Now()) * 8 / p.rateBps
}

// --- core.TM implementation ---------------------------------------------

// Backlogged implements core.TM.
func (s *Switch) Backlogged() *hw.Bitmap { return s.backlogged }

// setBacklogged re-derives queue q's backlogged bit, and its class's
// count, from the queue's length.
func (s *Switch) setBacklogged(q int) {
	cq := s.flat[q]
	if on := cq.bytes > 0; on != s.backlogged.Get(q) {
		s.backlogged.Assign(q, on)
		if on {
			s.inClass[cq.prio]++
		} else {
			s.inClass[cq.prio]--
		}
	}
}

// Threshold implements core.TM: the admission policy's current limit for
// the queues of class c, under a bm.ClassPolicy.
func (s *Switch) Threshold(c int) int { return s.classPol.ClassThreshold(s, c) }

// HeadPacketCells implements core.TM.
func (s *Switch) HeadPacketCells(q int) int {
	cq := s.flat[q]
	if cq.meta.Len() == 0 {
		return 0
	}
	return s.cellsFor(cq.meta.Peek().Size)
}

// cellsFor returns the number of cells a packet of n bytes takes: even a
// zero-length control packet takes one.
func (s *Switch) cellsFor(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + s.cfg.CellBytes - 1) / s.cfg.CellBytes
}

// HeadDrop implements core.TM: expel the head packet of queue q. Its PD
// leaves the list and its cells go back to the free count without a read
// of cell data memory, so it charges memBW only the pointer path.
func (s *Switch) HeadDrop(q int) (int, int, bool) {
	cq := s.flat[q]
	if cq.meta.Len() == 0 {
		return 0, 0, false
	}
	p := cq.meta.Pop()
	if cq.meta.Len() == 0 {
		s.ports[q/s.cfg.ClassesPerPort].backlog &^= 1 << cq.prio
	}
	// Capture before the hook: a DropHook may recycle p into a pkt.Pool,
	// which zeroes it in place.
	size := p.Size
	cells := s.cellsFor(size)
	cq.bytes -= size
	s.freeCells += cells
	s.setBacklogged(q)
	s.totalBytes -= size
	s.stats.DropsExpelled++
	s.portStats[q/s.cfg.ClassesPerPort].DropsExpelled++
	s.queueStats[q].DropsExpelled++
	if s.memBW != nil {
		s.memBW.add(s.eng.Now(), cells) // pointer-path bandwidth only
	}
	if s.DropHook != nil {
		s.DropHook(p, q, DropExpelled)
	}
	return size, cells, true
}

// Now implements core.TM.
func (s *Switch) Now() sim.Time { return s.eng.Now() }

// After implements core.TM.
func (s *Switch) After(d sim.Duration, fn func()) { s.eng.After(d, fn) }

// --- Data path -----------------------------------------------------------

// Receive is the ingress entry point: admission control, buffering, and
// (if the egress link is idle) kicking off transmission.
func (s *Switch) Receive(p *pkt.Packet) {
	if s.router == nil {
		panic("switchsim: no router installed")
	}
	s.stats.RxPackets++
	portID := s.router(p)
	class := p.Priority
	if class >= s.cfg.ClassesPerPort {
		class = s.cfg.ClassesPerPort - 1
	}
	q := s.qindex(portID, class)

	if !s.policy.Admit(s, q, p.Size) {
		// Preemptive policies may make room at admission time (Pushout
		// and its POT/QPO variants).
		ok := false
		if bm.FreeBuffer(s) < p.Size {
			switch {
			case s.preemptQ != nil:
				if s.preemptQ.MakeRoomFor(s, s, q, p.Size) {
					ok = s.policy.Admit(s, q, p.Size)
				}
			case s.preempt != nil:
				if s.preempt.MakeRoom(s, s, p.Size) {
					ok = s.policy.Admit(s, q, p.Size)
				}
			}
		}
		if !ok {
			s.drop(p, q, DropAdmission)
			return
		}
	}

	// Byte accounting said yes, but cell rounding may say no. The buffer
	// has one PD per cell and every packet takes at least one cell, so the
	// PDs never run out before the cells do.
	cells := s.cellsFor(p.Size)
	if cells > s.freeCells {
		s.drop(p, q, DropNoMemory)
		return
	}
	s.freeCells -= cells

	cq := s.flat[q]
	// ECN: mark at enqueue when the queue is past the threshold.
	if s.cfg.ECNThresholdBytes > 0 && p.ECNCapable && cq.bytes >= s.cfg.ECNThresholdBytes {
		p.CE = true
		s.stats.ECNMarked++
		s.portStats[portID].ECNMarked++
		s.queueStats[q].ECNMarked++
		if s.MarkHook != nil {
			s.MarkHook(p, q)
		}
	}
	cq.meta.Push(p)
	cq.bytes += p.Size
	pt := s.ports[portID]
	pt.backlog |= 1 << class
	s.setBacklogged(q)
	s.totalBytes += p.Size
	if s.memBW != nil {
		s.memBW.add(s.eng.Now(), cells) // cell writes
	}

	if s.occ != nil {
		// An enqueue shrinks the free buffer and can push any queue over
		// its (now lower) threshold: let the expulsion engine look.
		s.occ.Kick(q)
	} else if s.cfg.Occamy != nil {
		// First enqueue: all ports are wired by now, so the engine derives
		// its token rate from the complete port set.
		s.ensureExpulsion().Kick(q)
	}
	s.tryTransmit(pt)
}

func (s *Switch) drop(p *pkt.Packet, q int, reason DropReason) {
	ps := &s.portStats[q/s.cfg.ClassesPerPort]
	qs := &s.queueStats[q]
	switch reason {
	case DropAdmission:
		s.stats.DropsAdmission++
		ps.DropsAdmission++
		qs.DropsAdmission++
	case DropNoMemory:
		s.stats.DropsNoMemory++
		ps.DropsNoMemory++
		qs.DropsNoMemory++
	}
	if s.DropHook != nil {
		s.DropHook(p, q, reason)
	}
}

// tryTransmit starts serializing the next packet on the port if the link
// is idle and any class is backlogged.
func (s *Switch) tryTransmit(pt *port) {
	if pt.busy || pt.sink == nil {
		return
	}
	class := pt.sched.next(pt.backlog, pt.classes)
	if class < 0 {
		return
	}
	cq := pt.classes[class]
	p := cq.meta.Pop()
	if cq.meta.Len() == 0 {
		pt.backlog &^= 1 << class
	}
	cells := s.cellsFor(p.Size)
	cq.bytes -= p.Size
	s.freeCells += cells
	q := s.qindex(pt.id, class)
	s.setBacklogged(q)
	s.totalBytes -= p.Size
	now := s.eng.Now()
	if cq.drain != nil {
		cq.drain.add(now, p.Size)
	}
	if s.memBW != nil {
		s.memBW.add(now, 2*cells) // pointer reads + cell-data reads
	}
	if s.occ != nil {
		s.occ.OnTransmit(cells) // the scheduler always wins the bandwidth
	}
	s.stats.TxPackets++
	s.stats.TxBytes += int64(p.Size)
	ps := &s.portStats[pt.id]
	ps.TxPackets++
	ps.TxBytes += int64(p.Size)
	qs := &s.queueStats[q]
	qs.TxPackets++
	qs.TxBytes += int64(p.Size)

	txTime := sim.Duration(float64(p.Size*8) / pt.rateBps * float64(sim.Second))
	if txTime < 1 {
		txTime = 1
	}
	pt.busy = true
	// Two typed events per packet instead of two closures: tx-done first,
	// delivery second (same relative order when prop is zero).
	s.eng.AfterEvent(txTime, pt, nil)
	s.eng.AfterEvent(txTime+pt.prop, pt, p)
}

// EnableMemBandwidthMeter makes the switch meter its cell operations, so
// that MemBandwidthUtilization has a history to answer from. Call it
// before traffic: a meter that missed packets would report another rate.
func (s *Switch) EnableMemBandwidthMeter() {
	if s.stats.RxPackets != 0 {
		panic("switchsim: EnableMemBandwidthMeter after traffic arrived")
	}
	s.memBW = newRateMeter()
}

// MemBandwidthUtilization returns the fraction of the switch's aggregate
// memory bandwidth currently consumed (Fig 7(b)). The overall bandwidth
// is 2× the aggregate port rate (simultaneous full-rate writes + reads).
// It panics on a switch whose meter was never enabled.
func (s *Switch) MemBandwidthUtilization() float64 {
	if s.memBW == nil {
		panic("switchsim: MemBandwidthUtilization without EnableMemBandwidthMeter")
	}
	total := 0.0
	for _, pt := range s.ports {
		total += pt.rateBps
	}
	if total == 0 {
		return 0
	}
	overallCellsPerSec := 2 * total / 8 / float64(s.cfg.CellBytes)
	u := s.memBW.rate(s.eng.Now()) / overallCellsPerSec
	if u > 1 {
		u = 1
	}
	return u
}

// BufferUtilization returns Occupancy/Capacity (Fig 7(a)).
func (s *Switch) BufferUtilization() float64 {
	return float64(s.totalBytes) / float64(s.cfg.BufferBytes)
}

var _ bm.State = (*Switch)(nil)
var _ core.TM = (*Switch)(nil)
