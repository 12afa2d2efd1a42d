package netsim

import (
	"fmt"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/linkfault"
	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
)

// SingleSwitchConfig builds a star: n hosts around one switch, host i on
// port i. This is the topology of the P4 and DPDK testbed experiments.
type SingleSwitchConfig struct {
	// HostRates gives each host's (and its switch port's) rate in
	// bits/sec; the slice length sets the host count.
	HostRates []float64
	// LinkDelay is the one-way propagation delay per link.
	LinkDelay sim.Duration
	// Switch configures the switch; Ports is filled in automatically.
	Switch switchsim.Config
	// Faults selects per-link-class fault profiles (host links are the
	// host-leaf class here); the zero value leaves every link ideal.
	Faults linkfault.Config
	// Seed seeds the network's RNG.
	Seed uint64
}

// SingleSwitch builds the star network.
func SingleSwitch(cfg SingleSwitchConfig) *Network {
	n := len(cfg.HostRates)
	if n < 2 {
		panic("netsim: single-switch topology needs >= 2 hosts")
	}
	eng := sim.NewEngine()
	scfg := cfg.Switch
	scfg.Ports = n
	if scfg.ClassesPerPort == 0 {
		scfg.ClassesPerPort = 1
	}
	sw := switchsim.New("sw0", eng, scfg)
	net := &Network{
		Eng:      eng,
		Rand:     sim.NewRand(cfg.Seed),
		Switches: []*switchsim.Switch{sw},
		Pool:     pkt.NewPool(),
	}
	plan := linkfault.NewPlan(eng, net.Pool, cfg.Faults)
	if plan.Active() {
		net.Faults = plan
	}
	for i := 0; i < n; i++ {
		h := NewHost(eng, pkt.NodeID(i))
		h.join(net)
		up := plan.Wrap(linkfault.ClassHostLeaf, fmt.Sprintf("h%d->sw0", i), sw.Receive)
		down := plan.Wrap(linkfault.ClassHostLeaf, fmt.Sprintf("sw0->h%d", i), h.Deliver)
		h.Wire(cfg.HostRates[i], cfg.LinkDelay, up)
		sw.AttachPort(i, cfg.HostRates[i], cfg.LinkDelay, down)
		net.Hosts = append(net.Hosts, h)
	}
	sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })
	return net
}

// LeafSpineConfig describes the large-scale simulation fabric: Leaves
// leaf switches each with HostsPerLeaf hosts, fully connected to Spines
// spine switches, ECMP by flow hash.
type LeafSpineConfig struct {
	Spines       int
	Leaves       int
	HostsPerLeaf int
	// HostLinkBps is the host<->leaf rate; SpineLinkBps the leaf<->spine
	// rate (the paper uses 100Gbps for both).
	HostLinkBps  float64
	SpineLinkBps float64
	// LinkDelay is the per-link propagation delay. The paper's 80µs
	// base RTT across the spine corresponds to 10µs per link.
	LinkDelay sim.Duration
	// LeafSwitch/SpineSwitch configure the switches; Ports is filled in
	// automatically (leaf: HostsPerLeaf+Spines; spine: Leaves).
	LeafSwitch  switchsim.Config
	SpineSwitch switchsim.Config
	// HostRates optionally overrides individual host access rates (keyed
	// by dense host ID), modeling degraded links: flapping optics, a
	// misnegotiated port. Hosts absent from the map run at HostLinkBps.
	HostRates map[int]float64
	// MakeLeafPolicy/MakeSpinePolicy, when set, build a fresh policy (and
	// expulsion config) per switch instead of sharing the single Policy
	// pointer in LeafSwitch/SpineSwitch across all of them — required for
	// stateful policies (EDT, TDT, the pushout variants).
	MakeLeafPolicy  func() (bm.Policy, *core.Config)
	MakeSpinePolicy func() (bm.Policy, *core.Config)
	// Faults selects per-link-class fault profiles: host<->leaf links are
	// the host-leaf class, leaf<->spine links the leaf-spine class. The
	// zero value leaves every link ideal.
	Faults linkfault.Config
	// Seed seeds the network's RNG.
	Seed uint64
}

// hostRate returns host id's access rate, honoring degraded-port overrides.
func (c LeafSpineConfig) hostRate(id int) float64 {
	if r, ok := c.HostRates[id]; ok && r > 0 {
		return r
	}
	return c.HostLinkBps
}

// NumHosts returns the total host count.
func (c LeafSpineConfig) NumHosts() int { return c.Leaves * c.HostsPerLeaf }

// ecmpHash spreads flows over uplinks deterministically.
func ecmpHash(flowID uint64) uint64 {
	x := flowID
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// LeafSpine builds the fabric. Host IDs are dense: leaf l owns hosts
// [l*HostsPerLeaf, (l+1)*HostsPerLeaf).
func LeafSpine(cfg LeafSpineConfig) *Network {
	if cfg.Spines <= 0 || cfg.Leaves <= 0 || cfg.HostsPerLeaf <= 0 {
		panic("netsim: leaf-spine dimensions must be positive")
	}
	eng := sim.NewEngine()
	net := &Network{Eng: eng, Rand: sim.NewRand(cfg.Seed), Pool: pkt.NewPool()}
	plan := linkfault.NewPlan(eng, net.Pool, cfg.Faults)
	if plan.Active() {
		net.Faults = plan
	}

	leaves := make([]*switchsim.Switch, cfg.Leaves)
	spines := make([]*switchsim.Switch, cfg.Spines)
	for l := 0; l < cfg.Leaves; l++ {
		scfg := cfg.LeafSwitch
		scfg.Ports = cfg.HostsPerLeaf + cfg.Spines
		if scfg.ClassesPerPort == 0 {
			scfg.ClassesPerPort = 1
		}
		if cfg.MakeLeafPolicy != nil {
			scfg.Policy, scfg.Occamy = cfg.MakeLeafPolicy()
		}
		leaves[l] = switchsim.New(fmt.Sprintf("leaf%d", l), eng, scfg)
	}
	for s := 0; s < cfg.Spines; s++ {
		scfg := cfg.SpineSwitch
		scfg.Ports = cfg.Leaves
		if scfg.ClassesPerPort == 0 {
			scfg.ClassesPerPort = 1
		}
		if cfg.MakeSpinePolicy != nil {
			scfg.Policy, scfg.Occamy = cfg.MakeSpinePolicy()
		}
		spines[s] = switchsim.New(fmt.Sprintf("spine%d", s), eng, scfg)
	}

	// Hosts and host<->leaf links.
	for l := 0; l < cfg.Leaves; l++ {
		for i := 0; i < cfg.HostsPerLeaf; i++ {
			id := pkt.NodeID(l*cfg.HostsPerLeaf + i)
			h := NewHost(eng, id)
			h.join(net)
			leaf := leaves[l]
			rate := cfg.hostRate(int(id))
			up := plan.Wrap(linkfault.ClassHostLeaf, fmt.Sprintf("h%d->leaf%d", id, l), leaf.Receive)
			down := plan.Wrap(linkfault.ClassHostLeaf, fmt.Sprintf("leaf%d->h%d", l, id), h.Deliver)
			h.Wire(rate, cfg.LinkDelay, up)
			leaf.AttachPort(i, rate, cfg.LinkDelay, down)
			net.Hosts = append(net.Hosts, h)
		}
	}
	// Leaf<->spine links: leaf uplink port HostsPerLeaf+s; spine port l.
	for l := 0; l < cfg.Leaves; l++ {
		for s := 0; s < cfg.Spines; s++ {
			spine := spines[s]
			leaf := leaves[l]
			up := plan.Wrap(linkfault.ClassLeafSpine, fmt.Sprintf("leaf%d->spine%d", l, s), spine.Receive)
			down := plan.Wrap(linkfault.ClassLeafSpine, fmt.Sprintf("spine%d->leaf%d", s, l), leaf.Receive)
			leaf.AttachPort(cfg.HostsPerLeaf+s, cfg.SpineLinkBps, cfg.LinkDelay, up)
			spine.AttachPort(l, cfg.SpineLinkBps, cfg.LinkDelay, down)
		}
	}

	// Routing.
	for l := 0; l < cfg.Leaves; l++ {
		l := l
		leaves[l].SetRouter(func(p *pkt.Packet) int {
			dstLeaf := int(p.Dst) / cfg.HostsPerLeaf
			if dstLeaf == l {
				return int(p.Dst) % cfg.HostsPerLeaf // host-facing port
			}
			return cfg.HostsPerLeaf + int(ecmpHash(p.FlowID)%uint64(cfg.Spines))
		})
	}
	for s := 0; s < cfg.Spines; s++ {
		spines[s].SetRouter(func(p *pkt.Packet) int {
			return int(p.Dst) / cfg.HostsPerLeaf
		})
	}

	net.Switches = append(net.Switches, leaves...)
	net.Switches = append(net.Switches, spines...)
	return net
}

// Leaf returns leaf switch l of a LeafSpine network (the first Leaves
// entries of Switches).
func Leaf(n *Network, cfg LeafSpineConfig, l int) *switchsim.Switch {
	return n.Switches[l]
}

// Spine returns spine switch s of a LeafSpine network.
func Spine(n *Network, cfg LeafSpineConfig, s int) *switchsim.Switch {
	return n.Switches[cfg.Leaves+s]
}
