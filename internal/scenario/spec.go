// Package scenario is the declarative workload layer of the repository:
// a scenario is a small spec — topology, buffer-management policy,
// workload mix, duration, seed, metric selection — and the package turns
// it into a running simulation assembled from the reusable substrates
// (netsim, switchsim, transport, workload).
//
// Before this layer every new workload was a ~150-line Go program wiring
// those substrates by hand; with it a workload is a ~20-line Spec
// literal, and Run is the one place a simulation is built. Specs are
// also registrable: the catalog in catalog.go ships the ported example
// scenarios plus at-scale workloads the paper does not cover, all
// runnable (and grid-sweepable over any spec field) through
// cmd/occamy-scenario. The paper's own figures are grids of Specs too
// (figures.go).
package scenario

import (
	"encoding/json"
	"fmt"
	"math"

	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
)

// TopoKind selects the network shape.
type TopoKind int

const (
	// SingleSwitch is a star: Hosts end nodes around one shared-memory
	// switch (the testbed scenarios).
	SingleSwitch TopoKind = iota
	// LeafSpine is the §6.4 fabric with ECMP.
	LeafSpine
)

func (k TopoKind) String() string {
	if k == LeafSpine {
		return "leaf-spine"
	}
	return "single-switch"
}

// MarshalJSON renders the kind by name ("single-switch", "leaf-spine").
func (k TopoKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the kind names (and, leniently, their aliases
// "single" and "leafspine").
func (k *TopoKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("scenario: topology kind must be a string: %w", err)
	}
	switch s {
	case "", "single-switch", "single":
		*k = SingleSwitch
	case "leaf-spine", "leafspine":
		*k = LeafSpine
	default:
		return fmt.Errorf("scenario: unknown topology kind %q (single-switch|leaf-spine)", s)
	}
	return nil
}

// Topology describes the network and its switches. The json tags are
// the on-disk spec schema (see LoadSpec); zero fields are omitted so
// exported templates stay compact.
type Topology struct {
	Kind TopoKind `json:"kind"`

	// Hosts is the end-node count (single-switch; default 8).
	Hosts int `json:"hosts,omitempty"`
	// Spines/Leaves/HostsPerLeaf size the fabric (leaf-spine; default
	// 2×2×4).
	Spines       int `json:"spines,omitempty"`
	Leaves       int `json:"leaves,omitempty"`
	HostsPerLeaf int `json:"hosts_per_leaf,omitempty"`

	// LinkBps is the host access rate (default 10G). SpineLinkBps is the
	// leaf↔spine rate (default LinkBps).
	LinkBps      float64 `json:"link_bps,omitempty"`
	SpineLinkBps float64 `json:"spine_link_bps,omitempty"`
	// LinkDelay is the per-link propagation delay (default 5µs
	// single-switch, 10µs leaf-spine).
	LinkDelay sim.Duration `json:"link_delay,omitempty"`
	// DegradedPorts maps host IDs to a rate multiplier in (0,1): those
	// hosts' access links run slower, modeling flapping optics or a
	// misnegotiated port.
	DegradedPorts map[int]float64 `json:"degraded_ports,omitempty"`

	// BufferBytes fixes the shared buffer per switch. When zero the
	// buffer is sized Tomahawk-style from BufferKBPerPortPerGbps
	// (default 5.12).
	BufferBytes            int     `json:"buffer_bytes,omitempty"`
	BufferKBPerPortPerGbps float64 `json:"buffer_kb_per_port_per_gbps,omitempty"`
	// CellBytes is the buffer cell size (default 200).
	CellBytes int `json:"cell_bytes,omitempty"`

	// Classes is the number of traffic classes per port (default 1).
	Classes int `json:"classes,omitempty"`
	// Scheduler is the per-port discipline across classes:
	// "fifo" (default), "drr", or "sp".
	Scheduler string `json:"scheduler,omitempty"`
	// DRRQuantum is the deficit-round-robin credit per visit in bytes
	// ("drr" only; default 2×1514).
	DRRQuantum int `json:"drr_quantum,omitempty"`

	// ECNThresholdBytes fixes the marking point. When zero it defaults to
	// 65 MTUs on a single switch and ECNThresholdFrac×BDP (default 0.72)
	// on a fabric.
	ECNThresholdBytes int     `json:"ecn_threshold_bytes,omitempty"`
	ECNThresholdFrac  float64 `json:"ecn_threshold_frac,omitempty"`
}

// NumHosts returns the total host count.
func (t Topology) NumHosts() int {
	if t.Kind == LeafSpine {
		return t.Leaves * t.HostsPerLeaf
	}
	return t.Hosts
}

// SwitchPorts returns the port count of the (largest) switch, used for
// Tomahawk-style buffer sizing.
func (t Topology) SwitchPorts() int {
	if t.Kind == LeafSpine {
		return t.HostsPerLeaf + t.Spines
	}
	return t.Hosts
}

// hostRate returns host id's access rate with any degraded-port
// multiplier applied (non-positive multipliers are ignored).
func (t Topology) hostRate(id int) float64 {
	if mult, ok := t.DegradedPorts[id]; ok && mult > 0 {
		return mult * t.LinkBps
	}
	return t.LinkBps
}

// BufferSize resolves the shared buffer in bytes.
func (t Topology) BufferSize() int {
	if t.BufferBytes > 0 {
		return t.BufferBytes
	}
	return int(t.BufferKBPerPortPerGbps * 1024 * float64(t.SwitchPorts()) * t.LinkBps / 1e9)
}

func (t Topology) schedKind() (switchsim.SchedKind, error) {
	switch t.Scheduler {
	case "", "fifo":
		return switchsim.SchedFIFO, nil
	case "drr":
		return switchsim.SchedDRR, nil
	case "sp":
		return switchsim.SchedSP, nil
	}
	return 0, fmt.Errorf("scenario: unknown scheduler %q (fifo|drr|sp)", t.Scheduler)
}

// Workload kinds.
const (
	// Background: Poisson 1-to-1 flows with sizes from Dist at Load.
	WLBackground = "background"
	// Incast: partition–aggregate queries; the first incast workload with
	// Queries > 0 gates the run (it ends once they complete).
	WLIncast = "incast"
	// Permutation: rounds of host i → host i+Stride flows at Load.
	WLPermutation = "permutation"
	// AllToAll / AllReduce: the AI collective patterns.
	WLAllToAll  = "alltoall"
	WLAllReduce = "allreduce"
	// LongLived: Count persistent (effectively infinite) flows toward
	// Client from the topologically last hosts.
	WLLongLived = "longlived"
	// CBR / Burst: raw packet injection straight into the switch — no
	// transport, no hosts (the Pktgen role of the P4 scenarios). Raw
	// kinds cannot be mixed with transport kinds in one spec.
	WLCBR   = "cbr"
	WLBurst = "burst"
)

// Workload is one traffic component of a scenario. Fields are a union
// across kinds; each kind documents what it reads.
type Workload struct {
	// Kind is one of the WL* constants.
	Kind string `json:"kind"`
	// Label names the component in metric columns (default: Kind).
	Label string `json:"label,omitempty"`

	// Load is the offered load as a fraction of access bandwidth
	// (background, permutation, alltoall, allreduce).
	Load float64 `json:"load,omitempty"`
	// Dist selects the flow-size distribution for background traffic:
	// "websearch" (default), "cache", or "uniform" (FlowSize bytes).
	Dist string `json:"dist,omitempty"`
	// FlowSize is the per-flow size for collectives/permutation and the
	// "uniform" distribution.
	FlowSize int64 `json:"flow_size,omitempty"`

	// QuerySize is the total incast response volume per query; Fanout the
	// number of response flows; Queries how many queries to measure;
	// Interval the spacing (0 derives ~10× the unloaded QCT); QPS an
	// optional Poisson query rate replacing Interval.
	QuerySize int64        `json:"query_size,omitempty"`
	Fanout    int          `json:"fanout,omitempty"`
	Queries   int          `json:"queries,omitempty"`
	Interval  sim.Duration `json:"interval,omitempty"`
	QPS       float64      `json:"qps,omitempty"`
	// Client fixes the incast client (and the longlived destination);
	// -1 picks a random client per query. Servers restricts incast
	// responders to hosts 1..Servers (0 = all non-client hosts).
	Client  int `json:"client,omitempty"`
	Servers int `json:"servers,omitempty"`

	// Count is the number of longlived flows.
	Count int `json:"count,omitempty"`
	// Stride is the permutation offset (default 1); RotateStride advances
	// it every round.
	Stride       int  `json:"stride,omitempty"`
	RotateStride bool `json:"rotate_stride,omitempty"`

	// Priority is the traffic class; CC the congestion controller
	// ("dctcp" default, "cubic", "reno"); DupThresh a fixed fast-
	// retransmit threshold (0 = adaptive early retransmit).
	Priority  int    `json:"priority,omitempty"`
	CC        string `json:"cc,omitempty"`
	DupThresh int    `json:"dup_thresh,omitempty"`
	// ExcludeClient keeps this workload off the gating incast client
	// (the Fig 6 inter-port configuration).
	ExcludeClient bool `json:"exclude_client,omitempty"`

	// OnTime/OffTime gate round-based generators into bursts: the
	// workload runs for OnTime, pauses for OffTime, repeating. Zero
	// OnTime means always on.
	OnTime  sim.Duration `json:"on_time,omitempty"`
	OffTime sim.Duration `json:"off_time,omitempty"`

	// Raw injection (cbr, burst): DstPort is the egress port, RateBps the
	// injection rate, Bytes the burst volume, At the burst start, PktSize
	// the packet size (default 1000).
	DstPort int          `json:"dst_port,omitempty"`
	RateBps float64      `json:"rate_bps,omitempty"`
	Bytes   int64        `json:"bytes,omitempty"`
	At      sim.Duration `json:"at,omitempty"`
	PktSize int          `json:"pkt_size,omitempty"`
}

func (w Workload) label(i int) string {
	if w.Label != "" {
		return w.Label
	}
	return fmt.Sprintf("%s%d", w.Kind, i)
}

func (w Workload) raw() bool { return w.Kind == WLCBR || w.Kind == WLBurst }

// Spec is a complete declarative scenario.
type Spec struct {
	// Name identifies the scenario (registry key, table ID).
	Name string `json:"name"`
	// Title is the human-readable one-liner.
	Title string `json:"title,omitempty"`

	Topology  Topology   `json:"topology"`
	Policy    Policy     `json:"policy"`
	Workloads []Workload `json:"workloads"`

	// Faults optionally degrades the topology's links with per-class
	// fault profiles (loss, bursty loss, duplication, reordering,
	// jitter); see faults.go. Nil keeps every link ideal.
	Faults *Faults `json:"faults,omitempty"`

	// Warmup delays the gating incast so background traffic reaches
	// steady state (default 2ms when a gating incast exists).
	Warmup sim.Duration `json:"warmup,omitempty"`
	// Duration is the measurement horizon after warmup. Runs with a
	// gating incast may end earlier (all queries answered) or up to 500ms
	// later (stragglers).
	Duration sim.Duration `json:"duration,omitempty"`
	// Seed seeds every RNG in the run (default 42).
	Seed uint64 `json:"seed,omitempty"`

	// Scale is the run-size preset applied by Run: "quick" shrinks to
	// test scale, "paper" grows to evaluation scale, ""/"full" runs the
	// spec as written. File-based specs carry their scale here; the CLI
	// -scale flag overrides it.
	Scale Scale `json:"scale,omitempty"`

	// Metrics selects summary-table columns by name (see columns.go);
	// nil picks a default set based on the workload mix.
	Metrics []string `json:"metrics,omitempty"`
}

// WithDefaults returns the spec with every defaultable field resolved.
func (s Spec) WithDefaults() Spec {
	t := &s.Topology
	switch t.Kind {
	case SingleSwitch:
		if t.Hosts == 0 {
			t.Hosts = 8
		}
		if t.LinkDelay == 0 {
			t.LinkDelay = 5 * sim.Microsecond
		}
	case LeafSpine:
		if t.Spines == 0 {
			t.Spines = 2
		}
		if t.Leaves == 0 {
			t.Leaves = 2
		}
		if t.HostsPerLeaf == 0 {
			t.HostsPerLeaf = 4
		}
		if t.LinkDelay == 0 {
			t.LinkDelay = 10 * sim.Microsecond
		}
	}
	if t.LinkBps == 0 {
		t.LinkBps = 10e9
	}
	if t.SpineLinkBps == 0 {
		t.SpineLinkBps = t.LinkBps
	}
	if t.BufferBytes == 0 && t.BufferKBPerPortPerGbps == 0 {
		t.BufferKBPerPortPerGbps = 5.12
	}
	if t.Classes == 0 {
		t.Classes = 1
	}
	if t.ECNThresholdBytes == 0 {
		if t.Kind == LeafSpine {
			frac := t.ECNThresholdFrac
			if frac == 0 {
				frac = 0.72
			}
			bdp := float64(8*t.LinkDelay.Seconds()) * t.LinkBps / 8
			t.ECNThresholdBytes = int(frac * bdp)
		} else {
			t.ECNThresholdBytes = 65 * pkt.MTU
		}
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Duration == 0 {
		s.Duration = 40 * sim.Millisecond
	}
	if s.Warmup == 0 && s.gatingIncast() >= 0 {
		s.Warmup = 2 * sim.Millisecond
	}
	// Copy before defaulting workloads: the receiver shares its backing
	// array with the caller's spec (often a pristine registry entry).
	s.Workloads = append([]Workload(nil), s.Workloads...)
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if w.PktSize == 0 {
			w.PktSize = 1000
		}
		if w.Kind == WLIncast && w.Fanout == 0 {
			w.Fanout = s.Topology.NumHosts() - 1
		}
	}
	return s
}

// gatingIncast returns the index of the workload that gates the run (the
// first incast with a query budget), or -1.
func (s Spec) gatingIncast() int {
	for i, w := range s.Workloads {
		if w.Kind == WLIncast && w.Queries > 0 {
			return i
		}
	}
	return -1
}

// Raw reports whether the spec is a raw-injection scenario (all
// workloads are cbr/burst kinds).
func (s Spec) Raw() bool {
	if len(s.Workloads) == 0 {
		return false
	}
	for _, w := range s.Workloads {
		if !w.raw() {
			return false
		}
	}
	return true
}

// Validate rejects specs the builder cannot assemble.
func (s Spec) Validate() error {
	if len(s.Workloads) == 0 {
		return fmt.Errorf("scenario %q: no workloads", s.Name)
	}
	if _, err := ParseScale(string(s.Scale)); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	// Negative sizes, counts, and times cannot be built or scheduled
	// (the engine panics on events in the past); reject them here so a
	// well-formed JSON file can never crash or wedge the builder.
	t := s.Topology
	if t.Hosts < 0 || t.Spines < 0 || t.Leaves < 0 || t.HostsPerLeaf < 0 ||
		t.LinkBps < 0 || t.SpineLinkBps < 0 || t.LinkDelay < 0 ||
		t.BufferBytes < 0 || t.BufferKBPerPortPerGbps < 0 || t.CellBytes < 0 ||
		t.Classes < 0 || t.DRRQuantum < 0 ||
		t.ECNThresholdBytes < 0 || t.ECNThresholdFrac < 0 {
		return fmt.Errorf("scenario %q: negative topology field", s.Name)
	}
	// A trace holds byte counts as int32s. A computed size past an int's
	// range converts to a value outside [0, MaxInt32] too.
	if b := t.BufferSize(); b < 0 || b > math.MaxInt32 {
		return fmt.Errorf("scenario %q: a buffer of 2^31 bytes or more; trace series hold int32 counts", s.Name)
	}
	if t.Classes > switchsim.MaxClassesPerPort {
		return fmt.Errorf("scenario %q: %d classes per port, at most %d", s.Name, t.Classes, switchsim.MaxClassesPerPort)
	}
	if s.Duration < 0 || s.Warmup < 0 {
		return fmt.Errorf("scenario %q: negative duration/warmup", s.Name)
	}
	if err := s.Faults.validate(s.Name); err != nil {
		return err
	}
	if s.Faults != nil && s.Raw() {
		// Raw injection bypasses hosts and links entirely; a faults block
		// there would silently do nothing.
		return fmt.Errorf("scenario %q: faults cannot apply to raw (cbr/burst) injection", s.Name)
	}
	if _, err := s.Topology.schedKind(); err != nil {
		return err
	}
	// α scales free buffer into a threshold; a negative one admits
	// nothing. 0 selects the kind's default.
	for _, a := range [...]struct {
		path  string
		alpha float64
	}{{"policy.alpha", s.Policy.Alpha}, {"policy.alpha_hp", s.Policy.AlphaHP}, {"policy.alpha_lp", s.Policy.AlphaLP}} {
		if a.alpha < 0 {
			return fmt.Errorf("scenario %q: %s is %g; α is ≥ 0, and 0 selects the default", s.Name, a.path, a.alpha)
		}
	}
	if _, _, err := s.Policy.Build(s.Topology.Classes); err != nil {
		return err
	}
	raws := 0
	nHosts := s.Topology.NumHosts()
	for _, w := range s.Workloads {
		if w.raw() {
			raws++
		}
		if w.Load < 0 || w.FlowSize < 0 || w.QuerySize < 0 || w.Fanout < 0 ||
			w.Queries < 0 || w.Interval < 0 || w.QPS < 0 || w.Servers < 0 ||
			w.Count < 0 || w.Stride < 0 || w.Priority < 0 || w.DupThresh < 0 ||
			w.OnTime < 0 || w.OffTime < 0 || w.RateBps < 0 || w.Bytes < 0 ||
			w.At < 0 || w.PktSize < 0 {
			return fmt.Errorf("scenario %q: negative field in %s workload", s.Name, w.Kind)
		}
		switch w.Kind {
		case WLBackground, WLPermutation, WLAllToAll, WLAllReduce:
			if w.Load <= 0 {
				return fmt.Errorf("scenario %q: %s needs Load > 0", s.Name, w.Kind)
			}
			if w.Kind != WLBackground && w.FlowSize <= 0 {
				return fmt.Errorf("scenario %q: %s needs FlowSize > 0", s.Name, w.Kind)
			}
		case WLIncast:
			if w.QuerySize <= 0 {
				return fmt.Errorf("scenario %q: incast needs QuerySize > 0", s.Name)
			}
			// Client -1 means a random client per query; anything else
			// must name a host (the builder indexes hosts by it).
			if w.Client < -1 || w.Client >= nHosts {
				return fmt.Errorf("scenario %q: incast client %d out of range (-1 or 0..%d)", s.Name, w.Client, nHosts-1)
			}
		case WLLongLived:
			if w.Count <= 0 {
				return fmt.Errorf("scenario %q: longlived needs Count > 0", s.Name)
			}
			if w.Client < 0 || w.Client >= nHosts {
				return fmt.Errorf("scenario %q: longlived client %d out of range (0..%d)", s.Name, w.Client, nHosts-1)
			}
		case WLCBR, WLBurst:
			if w.RateBps <= 0 {
				return fmt.Errorf("scenario %q: %s needs RateBps > 0", s.Name, w.Kind)
			}
			// Raw injection routes on the packet's Dst: it must be one of
			// the switch's egress ports. (Raw on a fabric is rejected
			// below with its own message.)
			if s.Topology.Kind == SingleSwitch && (w.DstPort < 0 || w.DstPort >= s.Topology.Hosts) {
				return fmt.Errorf("scenario %q: %s dst_port %d out of range (0..%d)", s.Name, w.Kind, w.DstPort, s.Topology.Hosts-1)
			}
		default:
			return fmt.Errorf("scenario %q: unknown workload kind %q", s.Name, w.Kind)
		}
		if _, err := distFor(w); err != nil { // names the CDF, builds none
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if _, err := ccFor(w); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if raws > 0 && raws != len(s.Workloads) {
		return fmt.Errorf("scenario %q: raw (cbr/burst) and transport workloads cannot mix", s.Name)
	}
	if raws > 0 && s.Topology.Kind != SingleSwitch {
		return fmt.Errorf("scenario %q: raw injection needs a single-switch topology", s.Name)
	}
	return nil
}
