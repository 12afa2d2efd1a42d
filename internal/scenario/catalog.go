package scenario

import (
	"occamy/internal/linkfault"
	"occamy/internal/sim"
)

// The shipped catalog.
//
// The first four entries port the repository's examples/ onto the
// declarative layer; the rest are at-scale workloads the paper's
// evaluation does not cover. The paper's own tables and figures are
// catalog entries too, under their paper ids (paperFigures).
// Sizes are written out as concrete numbers (specs are data): a
// single-switch buffer defaults to 5.12KB/port/Gbps, so 8×10G ≈ 410KB
// and 32×10G ≈ 1.6MB.

func init() {
	// --- Ported: examples/quickstart ---------------------------------
	// One queue pinned at its DT threshold by 2× line-rate traffic, then
	// a 400KB burst at 100G into a second queue: the expulsion engine
	// reclaims the over-allocation (watch the expelled column).
	Register(Scenario{Spec: Spec{
		Name:  "quickstart",
		Title: "Occamy expulsion demo: pinned queue vs 400KB burst (1MB buffer)",
		Topology: Topology{
			Kind: SingleSwitch, Hosts: 8, LinkBps: 10e9, BufferBytes: 1 << 20,
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Workloads: []Workload{
			{Kind: WLCBR, Label: "longlived", DstPort: 0, RateBps: 20e9},
			{Kind: WLBurst, Label: "burst", DstPort: 1, RateBps: 100e9,
				Bytes: 400_000, At: 900 * sim.Microsecond},
		},
		Duration: 1400 * sim.Microsecond,
	}})

	// --- Ported: examples/burstabsorb (one grid point) ---------------
	// The Fig 12 scenario: sweep policy.kind / policy.alpha /
	// workloads[1].bytes from the CLI to reproduce the example's table.
	Register(Scenario{Spec: Spec{
		Name:  "burst-absorb",
		Title: "burst absorption: steady 2x queue + 100G burst (1.2MB buffer)",
		Topology: Topology{
			Kind: SingleSwitch, Hosts: 8, LinkBps: 10e9, BufferBytes: 1_200_000,
		},
		Policy: Policy{Kind: "occamy", Alpha: 2},
		Workloads: []Workload{
			{Kind: WLCBR, Label: "longlived", DstPort: 0, RateBps: 20e9},
			{Kind: WLBurst, Label: "burst", DstPort: 1, RateBps: 100e9,
				Bytes: 500_000, At: 1250 * sim.Microsecond},
		},
		Duration: 1650 * sim.Microsecond,
	}})

	// --- Ported: examples/leafspine ----------------------------------
	Register(Scenario{Spec: Spec{
		Name:  "leafspine-demo",
		Title: "leaf-spine 2x2x4: web-search 90% + random-client incast",
		Topology: Topology{
			Kind: LeafSpine, Spines: 2, Leaves: 2, HostsPerLeaf: 4,
			LinkBps: 10e9, BufferBytes: 300 << 10, ECNThresholdBytes: 60 << 10,
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Workloads: []Workload{
			{Kind: WLBackground, Load: 0.9},
			{Kind: WLIncast, Client: -1, Fanout: 6, QuerySize: 245_760,
				Interval: 2 * sim.Millisecond, Queries: 12},
		},
		Warmup:   sim.Millisecond,
		Duration: 24 * sim.Millisecond,
	}})

	// --- Ported: examples/bufferchoking ------------------------------
	// Strict priority, 14 persistent low-priority hostage flows, then a
	// high-priority incast. Sweep policy.kind=dt,occamy to reproduce the
	// example's comparison.
	Register(Scenario{Spec: Spec{
		Name:  "buffer-choking",
		Title: "HP incast vs LP hostage buffer (SP scheduling, 512KB)",
		Topology: Topology{
			Kind: SingleSwitch, Hosts: 8, LinkBps: 10e9,
			BufferBytes: 512 << 10, ECNThresholdBytes: 200 << 10,
			Classes: 2, Scheduler: "sp",
		},
		Policy: Policy{Kind: "occamy", Alpha: 8, AlphaHP: 8, AlphaLP: 1},
		Workloads: []Workload{
			{Kind: WLLongLived, Count: 14, Priority: 1, Client: 0, DupThresh: 3},
			{Kind: WLIncast, Client: 0, Servers: 5, Fanout: 20,
				QuerySize: 800_000, Priority: 0, DupThresh: 3, Queries: 4},
		},
		Warmup:   10 * sim.Millisecond,
		Duration: 40 * sim.Millisecond,
	}})

	// --- New: 256-way incast storm -----------------------------------
	// Far beyond the paper's incast degree 40: 256 synchronized response
	// flows across 31 servers into one port, twice the buffer per query,
	// over light background load.
	Register(Scenario{
		Spec: Spec{
			Name:  "incast-storm-256",
			Title: "256-way incast storm into one port (32 hosts, 2x-buffer queries)",
			Topology: Topology{
				Kind: SingleSwitch, Hosts: 32, LinkBps: 10e9,
			},
			Policy: Policy{Kind: "occamy", Alpha: 8},
			Workloads: []Workload{
				{Kind: WLBackground, Load: 0.2},
				{Kind: WLIncast, Client: 0, Fanout: 256, QuerySize: 3_400_000,
					Queries: 15},
			},
			Duration: 400 * sim.Millisecond,
		},
		// Paper scale: enough storms for a stable p999 tail. Each query
		// moves 3.4MB through one 10G port (~3ms unloaded), so 100
		// queries need the multi-second horizon.
		Paper: func(s Spec) Spec {
			s.Workloads = append([]Workload(nil), s.Workloads...)
			s.Workloads[1].Queries = 100
			s.Duration = 4 * sim.Second
			return s
		},
	})

	// --- New: mixed web-search + cache at 0.9 utilization -------------
	// Two heavy-tailed distributions sharing the low-priority class at a
	// combined 90% load while queries ride the high-priority class — the
	// bimodal mix production fabrics actually carry.
	Register(Scenario{
		Spec: Spec{
			Name:  "mixed-load-90",
			Title: "mixed websearch+cache background at 0.9 load + HP incast (DRR)",
			Topology: Topology{
				Kind: SingleSwitch, Hosts: 8, LinkBps: 10e9,
				Classes: 2, Scheduler: "drr",
			},
			Policy: Policy{Kind: "occamy", Alpha: 8},
			Workloads: []Workload{
				{Kind: WLBackground, Label: "websearch", Load: 0.45, Priority: 1},
				{Kind: WLBackground, Label: "cache", Dist: "cache", Load: 0.45, Priority: 1},
				{Kind: WLIncast, Client: 0, QuerySize: 250_000, Priority: 0,
					Queries: 15},
			},
			Duration: 80 * sim.Millisecond,
		},
		// Paper scale: the heavy-tailed mix needs a long horizon before
		// the large-flow buckets of the tail table fill in.
		Paper: func(s Spec) Spec {
			s.Workloads = append([]Workload(nil), s.Workloads...)
			s.Workloads[2].Queries = 200
			s.Duration = 800 * sim.Millisecond
			return s
		},
	})

	// --- New: degraded-port leaf-spine -------------------------------
	// Two hosts on different leaves run at quarter/half rate (flapping
	// optics): their slow-draining queues hoard shared buffer, which a
	// preemptive BM must reclaim for everyone else.
	Register(Scenario{Spec: Spec{
		Name:  "degraded-leafspine",
		Title: "leaf-spine with degraded host links (0.25x/0.5x) under load",
		Topology: Topology{
			Kind: LeafSpine, Spines: 2, Leaves: 2, HostsPerLeaf: 4,
			LinkBps:       10e9,
			DegradedPorts: map[int]float64{1: 0.25, 5: 0.5},
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Workloads: []Workload{
			{Kind: WLBackground, Load: 0.6},
			{Kind: WLIncast, Client: -1, Fanout: 8, QuerySize: 184_000,
				Interval: 2 * sim.Millisecond, Queries: 12},
		},
		Warmup:   sim.Millisecond,
		Duration: 24 * sim.Millisecond,
	}})

	// --- New: bursty all-reduce --------------------------------------
	// Training traffic is on/off, not Poisson: all-reduce rounds at 90%
	// load in 1.5ms bursts with 1.5ms gaps, with incast queries landing
	// in and between the bursts.
	Register(Scenario{Spec: Spec{
		Name:  "bursty-allreduce",
		Title: "bursty all-reduce (1.5ms on/1.5ms off at 0.9) + incast queries",
		Topology: Topology{
			Kind: LeafSpine, Spines: 2, Leaves: 2, HostsPerLeaf: 4,
			LinkBps: 10e9,
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Workloads: []Workload{
			{Kind: WLAllReduce, FlowSize: 262_144, Load: 0.9,
				OnTime: 1500 * sim.Microsecond, OffTime: 1500 * sim.Microsecond},
			{Kind: WLIncast, Client: -1, Fanout: 8, QuerySize: 150_000,
				Interval: 2 * sim.Millisecond, Queries: 12},
		},
		Warmup:   sim.Millisecond,
		Duration: 24 * sim.Millisecond,
	}})

	// --- New: four-class priority inversion under strict priority ----
	// Eight lowest-class hostage flows pin the buffer while two mid-class
	// background mixes run and a top-class incast queries through: the
	// per-queue telemetry shows each class's queues riding (or blowing
	// through) their own α threshold. Sweep policy.kind=dt,occamy to see
	// expulsion reclaim the hostage over-allocation class by class.
	Register(Scenario{Spec: Spec{
		Name:  "priority-inversion-8",
		Title: "4-class SP: 8 LP hostages + 2 mid-class mixes + HP incast (512KB)",
		Topology: Topology{
			Kind: SingleSwitch, Hosts: 8, LinkBps: 10e9,
			BufferBytes: 512 << 10, ECNThresholdBytes: 200 << 10,
			Classes: 4, Scheduler: "sp",
		},
		Policy: Policy{Kind: "occamy", Alpha: 8, AlphaHP: 8, AlphaLP: 1},
		Workloads: []Workload{
			{Kind: WLLongLived, Label: "hostages", Count: 8, Priority: 3, Client: 0, DupThresh: 3},
			{Kind: WLBackground, Label: "websearch", Load: 0.25, Priority: 1},
			{Kind: WLBackground, Label: "cache", Dist: "cache", Load: 0.25, Priority: 2},
			{Kind: WLIncast, Client: 0, Servers: 5, Fanout: 20,
				QuerySize: 600_000, Priority: 0, DupThresh: 3, Queries: 6},
		},
		Warmup:   5 * sim.Millisecond,
		Duration: 40 * sim.Millisecond,
		Metrics: []string{"policy", "qct_avg_ms", "qct_p99_ms", "rtos",
			"bg_avg_fct_ms", "drops", "expelled", "hot_queue",
			"hot_queue_peak_pct", "min_thr_headroom_pct"},
	}})

	// --- New: three-class incast over a DRR mix ----------------------
	// Web-search and cache-follower backgrounds each own a class, the
	// gating incast a third, with DRR sharing the ports fairly: per-queue
	// traces separate the per-class backlogs that whole-port occupancy
	// blurs together.
	Register(Scenario{Spec: Spec{
		Name:  "mixed-class-incast",
		Title: "3-class DRR: websearch + cache classes under a gating incast (16 hosts)",
		Topology: Topology{
			Kind: SingleSwitch, Hosts: 16, LinkBps: 10e9,
			Classes: 3, Scheduler: "drr", DRRQuantum: 3 * 1514,
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Workloads: []Workload{
			{Kind: WLBackground, Label: "websearch", Load: 0.3, Priority: 0},
			{Kind: WLBackground, Label: "cache", Dist: "cache", Load: 0.3, Priority: 1},
			{Kind: WLIncast, Client: 0, QuerySize: 500_000, Priority: 2, Queries: 10},
		},
		Duration: 60 * sim.Millisecond,
		Metrics: []string{"policy", "qct_avg_ms", "qct_p99_ms", "rtos",
			"bg_avg_fct_ms", "drops", "expelled", "ecn_marked",
			"hot_queue", "hot_queue_peak_pct", "min_thr_headroom_pct"},
	}})

	// --- New: two-class bursty collective on a fabric ----------------
	// On/off all-reduce rounds in the low class with random-client incast
	// queries in the high class, DRR on every leaf and spine: multi-class
	// queue telemetry on a fabric, where each switch's (port, class)
	// series evolve against per-switch thresholds.
	Register(Scenario{Spec: Spec{
		Name:  "multiclass-fabric-drr",
		Title: "leaf-spine 2-class DRR: bursty all-reduce (LP) + incast queries (HP)",
		Topology: Topology{
			Kind: LeafSpine, Spines: 2, Leaves: 2, HostsPerLeaf: 4,
			LinkBps: 10e9, Classes: 2, Scheduler: "drr",
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Workloads: []Workload{
			{Kind: WLAllReduce, FlowSize: 262_144, Load: 0.8, Priority: 1,
				OnTime: 1500 * sim.Microsecond, OffTime: 1500 * sim.Microsecond},
			{Kind: WLIncast, Client: -1, Fanout: 8, QuerySize: 150_000, Priority: 0,
				Interval: 2 * sim.Millisecond, Queries: 12},
		},
		Warmup:   sim.Millisecond,
		Duration: 24 * sim.Millisecond,
	}})

	// --- New: rotating permutation stress ----------------------------
	// Every host sends 1MB to a stride-rotated peer at 95% load: no
	// fan-in anywhere, so drops and slowdowns expose pure buffer-policy
	// and scheduling effects.
	Register(Scenario{Spec: Spec{
		Name:  "permutation-stress",
		Title: "rotating permutation at 0.95 load (16 hosts, 1MB flows)",
		Topology: Topology{
			Kind: SingleSwitch, Hosts: 16, LinkBps: 10e9,
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Workloads: []Workload{
			{Kind: WLPermutation, FlowSize: 1_000_000, Load: 0.95, RotateStride: true},
		},
		Duration: 30 * sim.Millisecond,
		Metrics: []string{"policy", "bg_avg_fct_ms", "bg_avg_slow", "delivered_mb",
			"drops", "expelled", "ecn_marked", "max_occ_pct"},
	}})

	// --- New: WAN-degraded fabric links --------------------------------
	// The leaf<->spine links behave like a congested long-haul segment:
	// Gilbert–Elliott bursty loss (~0.5% average, in multi-packet bursts)
	// plus up to 20µs of jitter — while the host access links stay clean.
	// Transport must absorb burst losses on the fabric without wedging
	// the gating incast.
	Register(Scenario{Spec: Spec{
		Name:  "wan-degraded-leafspine",
		Title: "leaf-spine with bursty-lossy, jittery fabric links (GE + 20us jitter)",
		Topology: Topology{
			Kind: LeafSpine, Spines: 2, Leaves: 2, HostsPerLeaf: 4,
			LinkBps: 10e9,
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Faults: &Faults{
			LeafSpine: &linkfault.Profile{
				GEBadLossProb: 0.25, GEGoodToBad: 0.004, GEBadToGood: 0.2,
				JitterMax: 20 * sim.Microsecond,
			},
		},
		Workloads: []Workload{
			{Kind: WLBackground, Load: 0.5},
			{Kind: WLIncast, Client: -1, Fanout: 8, QuerySize: 150_000,
				Interval: 2 * sim.Millisecond, Queries: 12},
		},
		Warmup:   sim.Millisecond,
		Duration: 24 * sim.Millisecond,
	}})

	// --- New: flaky ToR uplinks under incast ---------------------------
	// Every host access link of the ToR loses 1% of packets i.i.d. and
	// duplicates another 0.5%: the incast's loss recovery now races
	// link-level loss on both data and ACK paths, and duplicate ACKs
	// must not be mistaken for the fast-retransmit signal.
	Register(Scenario{Spec: Spec{
		Name:  "flaky-tor-incast",
		Title: "incast through a flaky ToR: 1% link loss + 0.5% duplication",
		Topology: Topology{
			Kind: SingleSwitch, Hosts: 16, LinkBps: 10e9,
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Faults: &Faults{
			HostLeaf: &linkfault.Profile{LossProb: 0.01, DupProb: 0.005},
		},
		Workloads: []Workload{
			{Kind: WLBackground, Load: 0.3},
			{Kind: WLIncast, Client: 0, QuerySize: 250_000, Queries: 10},
		},
		Duration: 60 * sim.Millisecond,
	}})

	// --- New: duplicate storm ------------------------------------------
	// Every link duplicates 10% of packets — no loss at all. A transport
	// fooled by duplicates would fast-retransmit constantly; a robust one
	// delivers the same tails as the clean run, with the switch carrying
	// ~10% phantom load.
	Register(Scenario{Spec: Spec{
		Name:  "duplicate-storm",
		Title: "10% packet duplication on every link, zero loss (8 hosts)",
		Topology: Topology{
			Kind: SingleSwitch, Hosts: 8, LinkBps: 10e9,
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Faults: &Faults{
			All: &linkfault.Profile{DupProb: 0.1},
		},
		Workloads: []Workload{
			{Kind: WLBackground, Load: 0.4},
			{Kind: WLIncast, Client: 0, QuerySize: 200_000, Queries: 10},
		},
		Duration: 40 * sim.Millisecond,
	}})

	// --- New: jittery all-reduce ---------------------------------------
	// Collective rounds over a fabric whose links add up to 15µs of
	// per-packet jitter and hold back 2% of packets for up to 30µs: the
	// reordering this produces must ride below the dup-ACK threshold
	// instead of triggering spurious fast retransmits.
	Register(Scenario{Spec: Spec{
		Name:  "jittery-allreduce",
		Title: "all-reduce over jittery, reordering links (15us jitter, 2% hold-back)",
		Topology: Topology{
			Kind: LeafSpine, Spines: 2, Leaves: 2, HostsPerLeaf: 4,
			LinkBps: 10e9,
		},
		Policy: Policy{Kind: "occamy", Alpha: 8},
		Faults: &Faults{
			All: &linkfault.Profile{
				JitterMax:   15 * sim.Microsecond,
				ReorderProb: 0.02, ReorderHold: 30 * sim.Microsecond,
			},
		},
		Workloads: []Workload{
			{Kind: WLAllReduce, FlowSize: 262_144, Load: 0.8},
			{Kind: WLIncast, Client: -1, Fanout: 8, QuerySize: 150_000,
				Interval: 2 * sim.Millisecond, Queries: 12},
		},
		Warmup:   sim.Millisecond,
		Duration: 24 * sim.Millisecond,
	}})
}
