// Package occamy is the public API of this repository: a from-scratch Go
// implementation of Occamy — a preemptive buffer-management (BM) scheme
// for on-chip shared-memory switches (Shan et al., arXiv:2501.13570) —
// together with the complete evaluation substrate: the cell-structured
// shared-buffer switch model, the non-preemptive baselines (Complete
// Sharing, Static Threshold, DT, ABM) and the preemptive ones (Pushout,
// Occamy), a DCTCP/CUBIC transport stack, datacenter topologies, and the
// workload generators used by the paper.
//
// # Quick start
//
// Build a switch with Occamy buffer management and push packets through:
//
//	eng := occamy.NewEngine()
//	sw := occamy.NewSwitch("sw0", eng, occamy.SwitchConfig{
//		Ports:          8,
//		ClassesPerPort: 1,
//		BufferBytes:    410 << 10,
//		Policy:         occamy.NewOccamy(occamy.OccamyConfig{Alpha: 8}),
//		Occamy:         &occamy.OccamyConfig{Alpha: 8},
//	})
//
// See examples/ for runnable end-to-end scenarios and
// internal/scenario (figures_*.go, catalog entries run by
// `occamy-scenario run <fig>`) for the per-figure reproductions.
//
// # Declarative scenarios
//
// Hand-wiring topology + transport + workload is rarely necessary: a
// scenario is a ~20-line declarative ScenarioSpec — topology, BM policy,
// workload mix, duration, seed, metric selection — that RunScenario
// assembles and executes:
//
//	res, err := occamy.RunScenario(occamy.ScenarioSpec{
//		Name:     "demo",
//		Topology: occamy.ScenarioTopology{Kind: occamy.TopoSingleSwitch, Hosts: 8},
//		Policy:   occamy.ScenarioPolicy{Kind: "occamy", Alpha: 8},
//		Workloads: []occamy.ScenarioWorkload{
//			{Kind: "background", Load: 0.6},
//			{Kind: "incast", Client: 0, QuerySize: 300_000, Queries: 20},
//		},
//	})
//
// A catalog of registered scenarios — the ported examples/figures plus
// at-scale workloads beyond the paper — is listed by ScenarioNames and
// runnable (with grid sweeps over any spec field) through
// cmd/occamy-scenario. Specs are also files: they serialize to strict
// JSON (LoadScenarioSpec, ScenarioSpec.Save; `occamy-scenario export`
// dumps any catalog entry as a template, `run ./file.json` executes
// one), carry a quick|full|paper Scale preset, and every run records
// deep telemetry that its result document renders — tail-quantile
// tables (ScenarioResultDoc.TailTable), per-switch/per-port buffer
// dynamics (ScenarioResultDoc.PerSwitchTable), and per-(port,class)
// queue series with the admission policy's threshold sampled alongside
// (ScenarioResultDoc.QueueTable, and the trace section's WriteCSV and
// QueueTracePlot Fig 3/11-style overlays).
// SCENARIOS.md documents the spec schema and how to register new
// scenarios.
//
// Results are data too: every run encodes to a canonical JSON document
// (ScenarioResultDoc; `occamy-scenario run -json`), and cmd/occamy-served
// exposes the whole catalog as an HTTP service — submit a spec, poll
// the job, fetch the result or its trace CSV — with a content-addressed
// cache that answers repeat submissions of any previously simulated
// spec without re-simulating (NewScenarioService embeds the same engine
// in-process; SERVICE.md documents the API).
//
// The deeper layers remain importable for advanced use:
//
//   - occamy/internal/* is intentionally *not* reachable from other
//     modules; everything a user needs is re-exported here.
package occamy

import (
	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/experiments"
	"occamy/internal/hw"
	"occamy/internal/linkfault"
	"occamy/internal/metrics"
	"occamy/internal/netsim"
	"occamy/internal/pkt"
	"occamy/internal/scenario"
	"occamy/internal/service"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
	"occamy/internal/transport"
	"occamy/internal/workload"
)

// --- Simulation engine ----------------------------------------------------

// Engine is the deterministic discrete-event scheduler driving every
// simulation.
type Engine = sim.Engine

// Time is virtual nanoseconds since the start of a run.
type Time = sim.Time

// Duration is a span of virtual time in nanoseconds.
type Duration = sim.Duration

// Virtual time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// Rand is the deterministic PRNG used by workloads.
type Rand = sim.Rand

// NewRand seeds a deterministic generator.
func NewRand(seed uint64) *Rand { return sim.NewRand(seed) }

// --- Buffer management policies -------------------------------------------

// Policy decides packet admission into the shared buffer.
type Policy = bm.Policy

// PolicyState is the live switch statistics view a Policy consults.
type PolicyState = bm.State

// NewDT returns Dynamic Threshold (Choudhury–Hahne) with parameter α —
// the de facto BM in commodity switch chips.
func NewDT(alpha float64) *bm.DT { return bm.NewDT(alpha) }

// NewABM returns Active Buffer Management (SIGCOMM'22), the strongest
// non-preemptive baseline. Its knobs are Alpha, AlphaByPrio and MinRate; a
// queue counts toward n_p while it holds any byte, a count the switch keeps.
func NewABM(alpha float64) *bm.ABM { return bm.NewABM(alpha) }

// CompleteSharing admits any packet that physically fits.
type CompleteSharing = bm.CompleteSharing

// StaticThreshold caps every queue at a fixed byte count.
type StaticThreshold = bm.StaticThreshold

// NewEDT returns Enhanced DT (INFOCOM'15): DT plus transient-burst
// headroom. clock supplies virtual nanoseconds (e.g. the engine's Now).
func NewEDT(alpha float64, clock func() int64) *bm.EDT { return bm.NewEDT(alpha, clock) }

// NewTDT returns Traffic-aware DT (INFOCOM'21): DT with per-queue
// absorption/evacuation states driven by Observe calls.
func NewTDT(alpha float64) *bm.TDT { return bm.NewTDT(alpha) }

// NewPOT returns Pushout-with-Threshold (JSAC'95): eviction allowed only
// while the arriving packet's queue is below fraction·B.
func NewPOT(fraction float64) *core.POT { return core.NewPOT(fraction) }

// NewQPO returns Quasi-Pushout (IEEE CL'97): eviction from a cheaply
// maintained quasi-longest-queue register.
func NewQPO() *core.QPO { return core.NewQPO() }

// OccamyConfig parameterizes the Occamy policy: admission α, victim
// selection, and the redundant-bandwidth token bucket.
type OccamyConfig = core.Config

// VictimPolicy selects which over-allocated queue Occamy drops from.
type VictimPolicy = core.VictimPolicy

// Victim policies.
const (
	RoundRobinDrop = core.RoundRobin
	LongestDrop    = core.LongestQueue
)

// NewOccamy returns the paper's preemptive BM: DT admission with a
// large α plus reactive head-drop expulsion of over-allocated queues.
func NewOccamy(cfg OccamyConfig) *core.Occamy { return core.New(cfg) }

// NewPushout returns the classic preemptive baseline: admit while any
// space remains; evict from the longest queue when full.
func NewPushout() *core.Pushout { return core.NewPushout() }

// DTReservedFraction returns F/B = 1/(1+αn), the free-buffer share DT
// reserves in steady state (Eq. 2 of the paper).
func DTReservedFraction(alpha float64, congestedQueues int) float64 {
	return bm.ReservedFraction(alpha, congestedQueues)
}

// --- Switch model -----------------------------------------------------------

// Switch is the shared-memory switch: cell-structured buffer, pluggable
// BM, per-port schedulers, ECN marking, and (for Occamy) the expulsion
// engine.
type Switch = switchsim.Switch

// SwitchConfig describes a switch.
type SwitchConfig = switchsim.Config

// SchedKind selects the per-port scheduling discipline.
type SchedKind = switchsim.SchedKind

// Scheduling disciplines.
const (
	SchedFIFO = switchsim.SchedFIFO
	SchedDRR  = switchsim.SchedDRR
	SchedSP   = switchsim.SchedSP
)

// DropReason classifies packet losses.
type DropReason = switchsim.DropReason

// Drop reasons.
const (
	DropAdmission = switchsim.DropAdmission
	DropNoMemory  = switchsim.DropNoMemory
	DropExpelled  = switchsim.DropExpelled
)

// NewSwitch builds a switch; attach ports and install a router before
// sending traffic.
func NewSwitch(name string, eng *Engine, cfg SwitchConfig) *Switch {
	return switchsim.New(name, eng, cfg)
}

// Packet is the simulated packet shared by all layers.
type Packet = pkt.Packet

// NodeID identifies a host in the network.
type NodeID = pkt.NodeID

// Wire-size constants.
const (
	MTU         = pkt.MTU
	MSS         = pkt.MSS
	HeaderBytes = pkt.HeaderBytes
)

// --- Network, transport, workloads ------------------------------------------

// Network bundles hosts and switches.
type Network = netsim.Network

// Host is an end node implementing the transport stack's Net interface.
type Host = netsim.Host

// FlowOptions parameterizes Network.StartFlow.
type FlowOptions = netsim.FlowOptions

// SingleSwitchConfig builds a star topology (the testbed scenarios).
type SingleSwitchConfig = netsim.SingleSwitchConfig

// LeafSpineConfig builds the §6.4 leaf–spine fabric with ECMP.
type LeafSpineConfig = netsim.LeafSpineConfig

// SingleSwitch builds a star network.
func SingleSwitch(cfg SingleSwitchConfig) *Network { return netsim.SingleSwitch(cfg) }

// LeafSpine builds a leaf–spine fabric.
func LeafSpine(cfg LeafSpineConfig) *Network { return netsim.LeafSpine(cfg) }

// CC is a pluggable congestion-control algorithm.
type CC = transport.CC

// TransportOptions tunes the end-host stack.
type TransportOptions = transport.Options

// NewDCTCP returns a DCTCP controller (ECN-proportional backoff).
func NewDCTCP(mss, initCwndSegs int) *transport.DCTCP {
	return transport.NewDCTCP(mss, initCwndSegs)
}

// NewCubic returns a CUBIC-style loss-based controller.
func NewCubic(mss, initCwndSegs int) *transport.Cubic {
	return transport.NewCubic(mss, initCwndSegs)
}

// NewRenoCC returns a classic NewReno AIMD controller.
func NewRenoCC(mss, initCwndSegs int) *transport.Reno {
	return transport.NewReno(mss, initCwndSegs)
}

// WebSearchCDF returns the DCTCP-paper web-search flow-size distribution.
func WebSearchCDF() *workload.CDF { return workload.WebSearch() }

// Background generates Poisson 1-to-1 flows at a target load.
type Background = workload.Background

// Incast generates query (partition–aggregate) traffic.
type Incast = workload.Incast

// AllToAll generates rounds of the AI all-to-all pattern.
type AllToAll = workload.AllToAll

// AllReduce generates double-binary-tree all-reduce rounds.
type AllReduce = workload.AllReduce

// Collector accumulates FCT/QCT samples and computes the paper's
// statistics (mean, p99, slowdowns, quantile tables).
type Collector = metrics.Collector

// QuantileRow is one tail-table line: a labeled sample population with
// its completion-time and slowdown quantiles.
type QuantileRow = metrics.QuantileRow

// --- Declarative scenarios ----------------------------------------------------

// ScenarioSpec is a complete declarative scenario: topology, policy,
// workload mix, duration, seed, and metric selection.
type ScenarioSpec = scenario.Spec

// ScenarioTopology describes the network shape of a spec.
type ScenarioTopology = scenario.Topology

// ScenarioPolicy is the declarative BM selection of a spec ("dt", "abm",
// "occamy", "pushout", ...).
type ScenarioPolicy = scenario.Policy

// ScenarioWorkload is one traffic component of a spec ("background",
// "incast", "permutation", "alltoall", "allreduce", "longlived", "cbr",
// "burst").
type ScenarioWorkload = scenario.Workload

// ScenarioFaults selects per-link-class fault profiles for a spec's
// optional "faults" block: "all" as the shared fallback, "host-leaf"
// for host access links, "leaf-spine" for fabric links.
type ScenarioFaults = scenario.Faults

// LinkFaultProfile configures one link class's fault emulation: i.i.d.
// and Gilbert–Elliott loss, duplication, hold-back reordering, and
// jitter (see internal/linkfault).
type LinkFaultProfile = linkfault.Profile

// LinkFaultStats is one faulted link's injection counters (offered,
// delivered, dropped, duplicated, held, reordered), surfaced per run
// in ScenarioResult.FaultLinks and ScenarioResultDoc.FaultTable.
type LinkFaultStats = linkfault.LinkStats

// ScenarioResult carries one scenario run's metrics, including the deep
// telemetry its document (ScenarioResult.Doc) renders as tables.
type ScenarioResult = scenario.Result

// SwitchTelemetry is one switch's recorded buffer dynamics: per-port
// egress counters plus sampled occupancy peaks, means, and time series
// down to the (port, class) queues.
type SwitchTelemetry = scenario.SwitchTelemetry

// QueueTelemetry is one (port, class) queue's recorded dynamics: length
// peak/mean/series plus the admission policy's threshold sampled at the
// same instants and the minimum threshold headroom — the data behind
// the Fig 3/11-style occupancy-vs-threshold overlays
// (ScenarioResultDoc.QueueTable and its trace's QueueTracePlot).
type QueueTelemetry = scenario.QueueTelemetry

// SwitchPortStats aggregates one egress port's counters.
type SwitchPortStats = switchsim.PortStats

// ScenarioScale is a run-size preset: quick (smoke), full (the spec as
// written), or paper (evaluation scale).
type ScenarioScale = scenario.Scale

// Run-size presets.
const (
	ScenarioQuick = scenario.ScaleQuick
	ScenarioFull  = scenario.ScaleFull
	ScenarioPaper = scenario.ScalePaper
)

// Scenario is a registry entry: a spec plus optional scale hooks.
type Scenario = scenario.Scenario

// SweepAxis is one swept spec field (path + values) of a scenario grid.
type SweepAxis = scenario.SweepAxis

// Table is the aligned-text output table shared by scenarios and the
// figure harnesses.
type Table = experiments.Table

// Topology kinds.
const (
	TopoSingleSwitch = scenario.SingleSwitch
	TopoLeafSpine    = scenario.LeafSpine
)

// RunScenario assembles and executes one declarative scenario.
func RunScenario(spec ScenarioSpec) (*ScenarioResult, error) { return scenario.Run(spec) }

// ScenarioProgress is one live-progress sample of a scenario run: the
// virtual clock, the nominal horizon, and the cumulative processed-event
// count, published at every engine chunk boundary. Deterministic by
// construction — wall clocks and rates are the caller's to add.
type ScenarioProgress = scenario.RunProgress

// RunScenarioWithProgress is RunScenario with a cooperative cancel
// check and a progress hook; either may be nil. The canceled func is
// polled between engine chunks; progress receives a sample at the same
// seam and once more (Final set) on completion.
func RunScenarioWithProgress(spec ScenarioSpec, canceled func() bool, progress func(ScenarioProgress)) (*ScenarioResult, error) {
	return scenario.RunWithProgress(spec, canceled, progress)
}

// LoadScenarioSpec reads and strictly validates a JSON spec file
// (unknown fields are rejected). Specs are data: save one with
// ScenarioSpec.Save, share the file, run it anywhere.
func LoadScenarioSpec(path string) (ScenarioSpec, error) { return scenario.LoadSpec(path) }

// ParseScenarioSpec decodes and strictly validates a JSON spec.
func ParseScenarioSpec(data []byte) (ScenarioSpec, error) { return scenario.ParseSpec(data) }

// RunScenarioSweep cross-products the axes over the spec and runs the
// grid concurrently with deterministic, input-ordered rows.
func RunScenarioSweep(spec ScenarioSpec, axes []SweepAxis) (*Table, error) {
	return scenario.RunSweep(spec, axes)
}

// RegisterScenario adds a scenario to the catalog (see SCENARIOS.md).
func RegisterScenario(s Scenario) { scenario.Register(s) }

// ScenarioResultDoc is the canonical JSON document of a scenario run:
// everything the text tables render (summary row, tail quantiles,
// per-switch/per-port/per-queue telemetry and counters) plus the
// occupancy trace series, and the renderers of the -deep tables and
// -trace views. `occamy-scenario run -json` prints it and occamy-served
// caches and serves it; equal specs always produce byte-identical
// documents (see SERVICE.md for the schema).
type ScenarioResultDoc = scenario.ResultDoc

// DecodeScenarioResult parses a canonical JSON result document,
// rejecting unknown fields and foreign schema versions.
func DecodeScenarioResult(data []byte) (*ScenarioResultDoc, error) {
	return scenario.DecodeResultDoc(data)
}

// ScenarioService is the embeddable scenario-execution service behind
// cmd/occamy-served: a bounded worker-pool job queue with a content-
// addressed result cache; Handler() exposes the HTTP API.
type ScenarioService = service.Service

// ScenarioServiceConfig sizes a ScenarioService (workers, queue depth,
// cache byte budget, optional persistence directory).
type ScenarioServiceConfig = service.Config

// NewScenarioService starts a scenario-execution service; the worker
// pool is live on return. Close it to stop accepting and drain.
func NewScenarioService(cfg ScenarioServiceConfig) (*ScenarioService, error) {
	return service.New(cfg)
}

// GetScenario looks a registered scenario up by name.
func GetScenario(name string) (Scenario, bool) { return scenario.Get(name) }

// ScenarioNames lists the registered catalog, sorted.
func ScenarioNames() []string { return scenario.Names() }

// --- Hardware models ----------------------------------------------------------

// HardwareCost is one row of the paper's Table 1.
type HardwareCost = hw.Cost

// HardwareCostTable returns the Table 1 cost model for a head-drop
// selector over nQueues queues with qlenBits-wide queue lengths.
func HardwareCostTable(nQueues, qlenBits int) []HardwareCost {
	return hw.Table1(nQueues, qlenBits)
}
