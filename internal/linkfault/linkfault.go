// Package linkfault is a deterministic per-link fault emulator: it
// interposes on the delivery seam of the simulator's links — the sink
// functions handed to switchsim.Switch.AttachPort and netsim.Host.Wire
// — and injects i.i.d. loss, Gilbert–Elliott bursty loss, duplication,
// hold-back reordering, and bounded delay jitter without touching
// switch or host code.
//
// Every link draws from its own RNG stream derived from the run seed
// and the link's stable name, so fault decisions are independent of
// wiring order and of sweep parallelism: the same seed produces the
// same per-link fault sequence whether the run executes alone or as one
// grid point among sixteen.
package linkfault

import (
	"occamy/internal/pkt"
	"occamy/internal/sim"
)

// Class labels a link's position in the topology; the scenario layer
// selects fault profiles by class.
type Class int

const (
	// ClassHostLeaf covers access links: host<->switch on a star,
	// host<->leaf on a fabric (both directions).
	ClassHostLeaf Class = iota
	// ClassLeafSpine covers fabric links: leaf<->spine (both directions).
	ClassLeafSpine
)

func (c Class) String() string {
	if c == ClassLeafSpine {
		return "leaf-spine"
	}
	return "host-leaf"
}

// Profile is one link's fault menu. The zero value is an ideal link.
// The field set mirrors the SimNet-style emulators (loss probability,
// duplicate-next, reorder-next, added latency) plus a two-state
// Gilbert–Elliott chain for bursty loss. JSON tags are the scenario
// spec schema (the `faults` block).
type Profile struct {
	// LossProb drops each packet independently with this probability.
	LossProb float64 `json:"loss_prob,omitempty"`

	// The Gilbert–Elliott chain: while in the bad state each packet is
	// additionally lost with GEBadLossProb. After every packet the chain
	// transitions good→bad with GEGoodToBad and bad→good with
	// GEBadToGood. All three zero disables the chain.
	GEBadLossProb float64 `json:"ge_bad_loss_prob,omitempty"`
	GEGoodToBad   float64 `json:"ge_good_to_bad,omitempty"`
	GEBadToGood   float64 `json:"ge_bad_to_good,omitempty"`

	// DupProb delivers each surviving packet twice with this probability.
	DupProb float64 `json:"dup_prob,omitempty"`

	// ReorderProb holds a surviving packet back with this probability
	// (one held packet per link at a time); the held packet is released
	// as soon as a later packet overtakes it, or after ReorderHold at the
	// latest (the max-hold horizon). ReorderProb > 0 requires
	// ReorderHold > 0.
	ReorderProb float64      `json:"reorder_prob,omitempty"`
	ReorderHold sim.Duration `json:"reorder_hold,omitempty"`

	// JitterMax adds a uniform random delay in [0, JitterMax] to each
	// surviving packet's propagation, independently per packet — so
	// enough jitter also reorders.
	JitterMax sim.Duration `json:"jitter_max,omitempty"`
}

// Active reports whether the profile injects any fault at all.
func (p *Profile) Active() bool {
	return p != nil && (p.LossProb > 0 || p.geEnabled() || p.DupProb > 0 ||
		p.ReorderProb > 0 || p.JitterMax > 0)
}

func (p *Profile) geEnabled() bool {
	return p.GEBadLossProb > 0 || p.GEGoodToBad > 0 || p.GEBadToGood > 0
}

// Stats counts one link's injected faults and traffic. The conservation
// invariant Offered + Duplicated == Delivered + Dropped + InFlight()
// holds at every instant.
type Stats struct {
	// Offered counts packets handed to the link by the sender side.
	Offered int64
	// Delivered counts packets handed on to the wrapped sink (duplicate
	// copies included).
	Delivered int64
	// Dropped counts injected losses (i.i.d. plus bursty).
	Dropped int64
	// Duplicated counts extra copies created.
	Duplicated int64
	// Held counts hold-back reorder events; Reordered counts held
	// packets that were actually overtaken before release (a timer
	// release within the hold horizon only delayed the packet).
	Held      int64
	Reordered int64
}

// InFlight returns the packets currently inside the emulator: held back
// or jitter-delayed, offered but neither delivered nor dropped yet.
func (s Stats) InFlight() int64 {
	return s.Offered + s.Duplicated - s.Delivered - s.Dropped
}

// Config selects the fault profiles of a topology's link classes. A nil
// profile (or an inactive one) leaves that class's links ideal and
// unwrapped.
type Config struct {
	// Seed is the base fault seed; each link derives its own RNG stream
	// from it and the link name.
	Seed      uint64
	HostLeaf  *Profile
	LeafSpine *Profile
}

// Enabled reports whether any link class has an active profile.
func (c Config) Enabled() bool {
	return c.HostLeaf.Active() || c.LeafSpine.Active()
}

// Plan owns the faulted links of one network. Topology builders call
// Wrap on every link sink; links with no active profile pass through
// untouched (and unrecorded).
type Plan struct {
	eng  *sim.Engine
	pool *pkt.Pool
	cfg  Config
	// Links holds the wrapped links in wiring order — a stable order for
	// deterministic reporting (no map iteration anywhere).
	Links []*Link
}

// NewPlan builds a fault plan for one network. pool may be nil (dropped
// and duplicated packets then fall to the garbage collector).
func NewPlan(eng *sim.Engine, pool *pkt.Pool, cfg Config) *Plan {
	return &Plan{eng: eng, pool: pool, cfg: cfg}
}

// Active reports whether the plan wraps anything at all.
func (pl *Plan) Active() bool { return pl != nil && pl.cfg.Enabled() }

func (pl *Plan) profileFor(class Class) *Profile {
	if class == ClassLeafSpine {
		return pl.cfg.LeafSpine
	}
	return pl.cfg.HostLeaf
}

// Wrap interposes the class's fault profile on a link sink. name must
// be stable across runs (it seeds the link's RNG stream); sinks of
// classes without an active profile are returned unchanged.
func (pl *Plan) Wrap(class Class, name string, sink func(*pkt.Packet)) func(*pkt.Packet) {
	prof := pl.profileFor(class)
	if !prof.Active() {
		return sink
	}
	l := &Link{
		Name:  name,
		Class: class,
		prof:  *prof,
		eng:   pl.eng,
		pool:  pl.pool,
		rng:   sim.NewRand(linkSeed(pl.cfg.Seed, name)),
		sink:  sink,
	}
	pl.Links = append(pl.Links, l)
	return l.Offer
}

// LinkStats is one link's identity plus its fault counters.
type LinkStats struct {
	Name  string
	Class Class
	Stats
}

// Snapshot returns every wrapped link's counters in wiring order.
func (pl *Plan) Snapshot() []LinkStats {
	if pl == nil || len(pl.Links) == 0 {
		return nil
	}
	out := make([]LinkStats, len(pl.Links))
	for i, l := range pl.Links {
		out[i] = LinkStats{Name: l.Name, Class: l.Class, Stats: l.stats}
	}
	return out
}

// linkSeed derives a link's RNG seed from the base seed and the link's
// stable name (FNV-1a), so fault streams are independent of wiring
// order; sim.NewRand's splitmix scrambling decorrelates nearby seeds.
func linkSeed(seed uint64, name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return seed ^ h
}

// Link is one faulted unidirectional link. It implements sim.Handler
// for its jitter-delayed deliveries.
type Link struct {
	Name  string
	Class Class

	prof Profile
	eng  *sim.Engine
	pool *pkt.Pool
	rng  *sim.Rand
	sink func(*pkt.Packet)

	geBad     bool
	held      *pkt.Packet
	holdTimer sim.Timer

	stats Stats
}

// Stats returns the link's current fault counters.
func (l *Link) Stats() Stats { return l.stats }

// Offer is the wrapped sink: it runs the fault lottery on each packet
// at its nominal arrival instant. The RNG draw order per packet is
// fixed (loss, GE, dup, hold, jitter — each drawn only when its feature
// is enabled), so the decision stream is a pure function of the link
// seed and the packet count.
func (l *Link) Offer(p *pkt.Packet) {
	l.stats.Offered++
	lost := false
	if l.prof.LossProb > 0 && l.rng.Float64() < l.prof.LossProb {
		lost = true
	}
	if l.prof.geEnabled() {
		if l.geBad {
			if l.prof.GEBadLossProb > 0 && l.rng.Float64() < l.prof.GEBadLossProb {
				lost = true
			}
			if l.prof.GEBadToGood > 0 && l.rng.Float64() < l.prof.GEBadToGood {
				l.geBad = false
			}
		} else if l.prof.GEGoodToBad > 0 && l.rng.Float64() < l.prof.GEGoodToBad {
			l.geBad = true
		}
	}
	if lost {
		l.stats.Dropped++
		l.recycle(p)
		return
	}
	if l.prof.DupProb > 0 && l.rng.Float64() < l.prof.DupProb {
		l.stats.Duplicated++
		l.forward(l.copy(p))
	}
	if l.prof.ReorderProb > 0 && l.held == nil && l.rng.Float64() < l.prof.ReorderProb {
		l.stats.Held++
		l.held = p
		l.holdTimer = l.eng.AfterTimer(l.prof.ReorderHold, l.releaseHeldExpired)
		return
	}
	l.forward(p)
	// A packet just went past: release any held packet behind it — it
	// has now been overtaken, which is the reordering we wanted.
	if l.held != nil {
		l.holdTimer.Stop()
		h := l.held
		l.held = nil
		l.stats.Reordered++
		l.deliver(h)
	}
}

// releaseHeldExpired is the max-hold horizon: no packet overtook the
// held one in time, so it goes out merely delayed, not reordered.
func (l *Link) releaseHeldExpired() {
	if l.held == nil {
		return
	}
	h := l.held
	l.held = nil
	l.deliver(h)
}

// forward sends a packet onward, through the jitter stage if enabled.
func (l *Link) forward(p *pkt.Packet) {
	if l.prof.JitterMax > 0 {
		if d := sim.Duration(l.rng.Int63n(int64(l.prof.JitterMax) + 1)); d > 0 {
			l.eng.AfterEvent(d, l, p)
			return
		}
	}
	l.deliver(p)
}

// OnEvent implements sim.Handler: a jitter-delayed packet arrives.
func (l *Link) OnEvent(arg any) {
	l.deliver(arg.(*pkt.Packet))
}

func (l *Link) deliver(p *pkt.Packet) {
	l.stats.Delivered++
	l.sink(p)
}

// copy clones a packet for duplication. The clone keeps the original's
// ID: a link-level duplicate is the same packet arriving twice, and
// endpoints use the ID to recognize it as such. The clone's queue link is
// the original's, and harmless: pkt.FIFO.Push drops it.
func (l *Link) copy(p *pkt.Packet) *pkt.Packet {
	var q *pkt.Packet
	if l.pool != nil {
		q = l.pool.Get()
	} else {
		q = &pkt.Packet{}
	}
	*q = *p
	return q
}

func (l *Link) recycle(p *pkt.Packet) {
	if l.pool != nil {
		l.pool.Put(p)
	}
}
