package netsim

import (
	"testing"

	"occamy/internal/bm"
	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
	"occamy/internal/transport"
)

func starNet(hosts int, rate float64, alpha float64, bufBytes int) *Network {
	rates := make([]float64, hosts)
	for i := range rates {
		rates[i] = rate
	}
	return SingleSwitch(SingleSwitchConfig{
		HostRates: rates,
		LinkDelay: 5 * sim.Microsecond,
		Switch: switchsim.Config{
			ClassesPerPort:    1,
			BufferBytes:       bufBytes,
			Policy:            bm.NewDT(alpha),
			ECNThresholdBytes: bufBytes / 6, // DCTCP-style marking
		},
		Seed: 1,
	})
}

func TestSingleFlowOverStar(t *testing.T) {
	net := starNet(2, 10e9, 8, 1<<20)
	var fct sim.Duration = -1
	net.StartFlow(0, 0, 1, 1_000_000, FlowOptions{
		ECN:        true,
		OnComplete: func(d sim.Duration) { fct = d },
	})
	net.Eng.RunUntil(sim.Second)
	if fct < 0 {
		t.Fatal("flow did not complete")
	}
	// 1MB at 10Gbps ≈ 800µs + header overhead + RTT; allow 2x.
	if fct > 2*sim.Millisecond {
		t.Fatalf("fct = %v, want ~1ms", fct)
	}
	st := net.Switches[0].Stats()
	if st.Drops() != 0 {
		t.Fatalf("lossless single flow dropped %d packets", st.Drops())
	}
}

func TestTwoFlowsShareBottleneckFairly(t *testing.T) {
	// Hosts 0 and 1 both send long flows to host 2: in steady state
	// DCTCP+DT must split the shared egress roughly evenly. (Short
	// synchronized bursts are legitimately unfair — slow-start races and
	// tail-loss RTOs — so fairness is asserted on long-run throughput.)
	net := starNet(3, 10e9, 1, 200_000)
	var h [2]uint64
	for i := 0; i < 2; i++ {
		h[i] = net.StartFlow(0, pkt.NodeID(i), 2, 50_000_000, FlowOptions{ECN: true})
	}
	// Skip the slow-start race (which can cost one flow an RTO), then
	// measure goodput over a steady-state window.
	net.Eng.RunUntil(10 * sim.Millisecond)
	s0, s1 := net.Flow(h[0]).Received, net.Flow(h[1]).Received
	net.Eng.RunUntil(30 * sim.Millisecond)
	r0 := net.Flow(h[0]).Received - s0
	r1 := net.Flow(h[1]).Received - s1
	if r0 == 0 || r1 == 0 {
		t.Fatalf("a flow is stalled: %d vs %d bytes", r0, r1)
	}
	ratio := float64(r0) / float64(r1)
	if ratio < 0.65 || ratio > 1.55 {
		t.Fatalf("steady-state throughput ratio = %v (%d vs %d bytes), want ~1", ratio, r0, r1)
	}
	// Aggregate goodput should be near the 10G bottleneck: >=70%.
	total := float64(r0+r1) * 8 / 0.020
	if total < 0.7*10e9 {
		t.Fatalf("aggregate goodput %.2fGbps, want >7Gbps", total/1e9)
	}
}

func TestLeafSpineAllPairsReachable(t *testing.T) {
	cfg := LeafSpineConfig{
		Spines: 2, Leaves: 2, HostsPerLeaf: 2,
		HostLinkBps: 10e9, SpineLinkBps: 10e9,
		LinkDelay: 5 * sim.Microsecond,
		LeafSwitch: switchsim.Config{
			ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8),
		},
		SpineSwitch: switchsim.Config{
			ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8),
		},
		Seed: 1,
	}
	net := LeafSpine(cfg)
	n := cfg.NumHosts()
	completed := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			net.StartFlow(0, pkt.NodeID(s), pkt.NodeID(d), 50_000, FlowOptions{
				ECN:        true,
				OnComplete: func(sim.Duration) { completed++ },
			})
		}
	}
	net.Eng.RunUntil(sim.Second)
	want := n * (n - 1)
	if completed != want {
		t.Fatalf("completed %d/%d all-pairs flows", completed, want)
	}
}

func TestLeafSpineCrossLeafLatency(t *testing.T) {
	cfg := LeafSpineConfig{
		Spines: 2, Leaves: 2, HostsPerLeaf: 1,
		HostLinkBps: 100e9, SpineLinkBps: 100e9,
		LinkDelay: 10 * sim.Microsecond,
		LeafSwitch: switchsim.Config{
			ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8),
		},
		SpineSwitch: switchsim.Config{
			ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8),
		},
	}
	net := LeafSpine(cfg)
	var fct sim.Duration
	// One MSS measured at the receiver: the one-way path is 4 links ×
	// 10µs plus serialization at each of the 4 hops — half the paper's
	// 80µs base RTT.
	net.StartFlow(0, 0, 1, pkt.MSS, FlowOptions{
		ECN:        true,
		OnComplete: func(d sim.Duration) { fct = d },
	})
	net.Eng.RunUntil(10 * sim.Millisecond)
	if fct == 0 {
		t.Fatal("flow did not complete")
	}
	if fct < 40*sim.Microsecond || fct > 60*sim.Microsecond {
		t.Fatalf("1-MSS FCT = %v, want ~40-50µs (half base RTT)", fct)
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	cfg := LeafSpineConfig{
		Spines: 4, Leaves: 2, HostsPerLeaf: 4,
		HostLinkBps: 10e9, SpineLinkBps: 10e9,
		LinkDelay: sim.Microsecond,
		LeafSwitch: switchsim.Config{
			ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8),
		},
		SpineSwitch: switchsim.Config{
			ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8),
		},
	}
	net := LeafSpine(cfg)
	for i := 0; i < 64; i++ {
		net.StartFlow(0, 0, 4, 10_000, FlowOptions{ECN: true}) // cross-leaf
	}
	net.Eng.RunUntil(100 * sim.Millisecond)
	// Every spine should have forwarded something.
	for s := 0; s < cfg.Spines; s++ {
		if Spine(net, cfg, s).Stats().TxPackets == 0 {
			t.Fatalf("spine %d received no traffic: ECMP not spreading", s)
		}
	}
}

func TestHostNICSerializes(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0)
	var arrivals []sim.Time
	h.Wire(1e9, 0, func(p *pkt.Packet) { arrivals = append(arrivals, eng.Now()) })
	for i := 0; i < 3; i++ {
		h.Send(&pkt.Packet{ID: uint64(i + 1), Size: 1250})
	}
	eng.Run()
	// 1250B at 1Gbps = 10µs each, serialized.
	want := []sim.Time{10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestUnknownFlowDeliveryIgnored(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 0)
	h.Deliver(&pkt.Packet{FlowID: 999}) // must not panic
}

// TestOppositeFlowsDeliverByIndex runs two flows in opposite directions
// between the same two hosts, on one switch and across a fabric: each
// host is the sender of one flow and the receiver of the other, so every
// arriving packet must reach the right end of the right flow — data the
// receiver, ACKs the sender — for both to finish. Then packets for flow
// IDs the network never issued, 0 and N+1, are dropped at a wired host
// and returned to the network's pool, leaving both flows untouched.
func TestOppositeFlowsDeliverByIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *Network
	}{
		{"single-switch", starNet(2, 10e9, 8, 1<<20)},
		{"leaf-spine", LeafSpine(LeafSpineConfig{
			Spines: 2, Leaves: 2, HostsPerLeaf: 1,
			HostLinkBps: 10e9, SpineLinkBps: 10e9,
			LinkDelay:   5 * sim.Microsecond,
			LeafSwitch:  switchsim.Config{ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8)},
			SpineSwitch: switchsim.Config{ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8)},
			Seed:        1,
		})},
	} {
		net := tc.net
		t.Run(tc.name, func(t *testing.T) {
			size := map[uint64]int64{}
			fwd := net.StartFlow(0, 0, 1, 300_000, FlowOptions{ECN: true})
			rev := net.StartFlow(0, 1, 0, 200_000, FlowOptions{ECN: true})
			size[fwd], size[rev] = 300_000, 200_000
			net.Eng.RunUntil(sim.Second)
			for _, id := range []uint64{fwd, rev} {
				if f := net.Flow(id); !f.Done || f.Received != size[id] {
					t.Fatalf("flow %d: %+v, want done with %d bytes", id, f, size[id])
				}
			}
			for _, id := range []uint64{0, 3} {
				for _, ack := range []bool{false, true} {
					p := &pkt.Packet{FlowID: id, Src: 0, Dst: 1, Size: pkt.MSS, Ack: ack, AckNo: 1}
					net.Hosts[1].Deliver(p)
					if got := net.Pool.Get(); got != p || *got != (pkt.Packet{}) {
						t.Fatalf("flow ID %d (ack %v): packet not zeroed and returned to the pool", id, ack)
					}
				}
			}
			if net.Flow(fwd).Received != size[fwd] || net.Flow(rev).Received != size[rev] {
				t.Fatal("a packet for an unissued flow ID reached a flow")
			}
		})
	}
}

func TestStartFlowPanicsOnSelfFlow(t *testing.T) {
	net := starNet(2, 1e9, 1, 1<<20)
	defer func() {
		if recover() == nil {
			t.Error("self-flow did not panic")
		}
	}()
	net.StartFlow(0, 1, 1, 100, FlowOptions{})
}

var _ transport.Net = (*Host)(nil)

// ECMP must be per-flow consistent: all packets of one flow take the
// same spine (no reordering from path churn).
func TestECMPPerFlowConsistency(t *testing.T) {
	cfg := LeafSpineConfig{
		Spines: 4, Leaves: 2, HostsPerLeaf: 2,
		HostLinkBps: 10e9, SpineLinkBps: 10e9,
		LinkDelay: sim.Microsecond,
		LeafSwitch: switchsim.Config{
			ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8),
		},
		SpineSwitch: switchsim.Config{
			ClassesPerPort: 1, BufferBytes: 1 << 20, Policy: bm.NewDT(8),
		},
	}
	net := LeafSpine(cfg)
	// One big flow; count which spines forward its data packets.
	id := net.StartFlow(0, 0, 2, 400_000, FlowOptions{ECN: true})
	net.Eng.RunUntil(100 * sim.Millisecond)
	if !net.Flow(id).Done {
		t.Fatal("flow did not complete")
	}
	used := 0
	for s := 0; s < cfg.Spines; s++ {
		if Spine(net, cfg, s).Stats().TxPackets > 0 {
			used++
		}
	}
	// Data takes one spine, the reverse ACK flow shares the same flow ID
	// and hash: still one spine.
	if used != 1 {
		t.Fatalf("flow used %d spines, want 1 (per-flow ECMP)", used)
	}
}
