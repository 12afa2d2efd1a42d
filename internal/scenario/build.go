package scenario

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/linkfault"
	"occamy/internal/metrics"
	"occamy/internal/netsim"
	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
	"occamy/internal/transport"
	"occamy/internal/workload"
)

// WorkloadStats carries per-workload run output.
type WorkloadStats struct {
	Kind  string
	Label string
	// Col holds completion samples (FCTs/QCTs with slowdowns).
	Col metrics.Collector
	// Launched counts flows/queries/rounds started; Done counts gated
	// incast queries fully answered; Timeouts counts RTOs (incast only).
	Launched int64
	Done     int64
	Timeouts int64
	// SentPackets/SentBytes/Drops account raw injection traffic.
	SentPackets int64
	SentBytes   int64
	Drops       int64
}

// Result is one scenario run's output.
type Result struct {
	Spec      Spec
	Workloads []WorkloadStats
	// PerSwitch / Buffered / Occupancy snapshot each switch at stop time.
	PerSwitch []switchsim.Stats
	Buffered  []int
	Occupancy []int
	// Total aggregates PerSwitch.
	Total switchsim.Stats
	// Telemetry is the recorded occupancy dynamics, one entry per switch
	// in PerSwitch order (see telemetry.go).
	Telemetry []SwitchTelemetry
	// SampleEvery is the occupancy sampling period of the run;
	// SampleTimes the sample timestamps, i·SampleEvery (shared by every
	// switch — one aligned sampler drives all recorders). offGrid is the
	// first sample taken off that grid, which fails the run.
	SampleEvery sim.Duration
	SampleTimes []sim.Time
	offGrid     error
	// MaxOccupancy is the peak buffered byte count across switches
	// (periodic sampling); BufferBytes the per-switch capacity.
	MaxOccupancy int
	BufferBytes  int
	// FaultLinks holds the per-link fault-injection counters in wiring
	// order; nil when the spec enabled no fault profile.
	FaultLinks []linkfault.LinkStats
	// DropBufUtil / DropMemBWUtil are the buffer and memory-bandwidth
	// utilization fractions sampled at every non-expulsion drop, on any
	// switch (Fig 7). Recorded only when Spec.Metrics selects a
	// drop_*_util_* column.
	DropBufUtil   []float64
	DropMemBWUtil []float64
	// Events is the number of simulator events executed.
	Events uint64
}

// AccountingDrift returns the packet-conservation residue summed over
// all switches: received minus transmitted, dropped, expelled, and still
// buffered. Any healthy run reports exactly zero.
func (r *Result) AccountingDrift() int64 {
	var drift int64
	for i, st := range r.PerSwitch {
		drift += st.RxPackets - st.TxPackets - st.Drops() - st.DropsExpelled - int64(r.Buffered[i])
	}
	return drift
}

// DeliveredBytes returns the bytes transmitted by all switches.
func (r *Result) DeliveredBytes() int64 { return r.Total.TxBytes }

// distFor resolves a workload's flow-size distribution to the function
// that builds it, so that Validate checks a name without building a CDF.
func distFor(w Workload) (func() *workload.CDF, error) {
	switch w.Dist {
	case "", "websearch":
		return workload.WebSearch, nil
	case "cache":
		return workload.CacheFollower, nil
	case "uniform":
		if w.FlowSize <= 0 {
			return nil, fmt.Errorf("dist \"uniform\" needs FlowSize > 0")
		}
		size := w.FlowSize
		return func() *workload.CDF { return workload.Uniform(size) }, nil
	}
	return nil, fmt.Errorf("unknown dist %q (websearch|cache|uniform)", w.Dist)
}

// ccFor resolves a workload's congestion controller; nil means the
// netsim default (DCTCP).
func ccFor(w Workload) (func(mss, segs int) transport.CC, error) {
	switch w.CC {
	case "", "dctcp":
		return nil, nil
	case "cubic":
		return func(mss, segs int) transport.CC { return transport.NewCubic(mss, segs) }, nil
	case "reno":
		return func(mss, segs int) transport.CC { return transport.NewReno(mss, segs) }, nil
	}
	return nil, fmt.Errorf("unknown cc %q (dctcp|cubic|reno)", w.CC)
}

// tdtObserverPeriod is the cadence at which TDT is fed its queue-length
// observations.
const tdtObserverPeriod = 10 * sim.Microsecond

// wireClocks connects clock-dependent policies to the engine: EDT gets
// the virtual clock, TDT a periodic per-queue observer.
func wireClocks(sw *switchsim.Switch, eng *sim.Engine) *sim.Ticker {
	switch p := sw.Policy().(type) {
	case *bm.EDT:
		p.Clock = func() int64 { return int64(eng.Now()) }
	case *bm.TDT:
		return eng.Every(0, tdtObserverPeriod, func() {
			for q := 0; q < sw.NumQueues(); q++ {
				p.Observe(sw, q)
			}
		})
	}
	return nil
}

// ErrCanceled is returned by RunWithCancel when the cancel check fired
// before the run completed.
var ErrCanceled = errors.New("scenario: run canceled")

// Run assembles and executes one scenario. The spec's Scale preset is
// applied first (quick/paper transform), then defaults and validation.
func Run(spec Spec) (*Result, error) {
	return RunWithCancel(spec, nil)
}

// RunWithCancel is Run with a cooperative cancel check: the engine
// steps in bounded chunks of virtual time and polls canceled between
// chunks, returning ErrCanceled (and discarding the partial run) when
// it reports true. A nil canceled never cancels. The job queue in
// internal/service uses it to abort running jobs without a way to
// interrupt the discrete-event engine mid-chunk.
func RunWithCancel(spec Spec, canceled func() bool) (*Result, error) {
	return RunWithProgress(spec, canceled, nil)
}

// MustRun is Run for specs known valid (registered catalog entries).
func MustRun(spec Spec) *Result {
	r, err := Run(spec)
	if err != nil {
		panic(err)
	}
	return r
}

// buildNetwork assembles the topology with per-switch fresh policies.
func buildNetwork(spec Spec) (*netsim.Network, []*sim.Ticker) {
	t := spec.Topology
	sched, _ := t.schedKind()
	mkPolicy := func() (bm.Policy, *core.Config) {
		p, occ, err := spec.Policy.Build(t.Classes)
		if err != nil {
			panic(err) // Validate already vetted the kind
		}
		return p, occ
	}
	// Policy/Occamy left zero here: the single-switch branch fills them
	// in once, the leaf-spine branch hands netsim the Make hooks so every
	// switch gets its own fresh instance (stateful EDT/TDT maps must not
	// be shared across switches).
	baseCfg := switchsim.Config{
		ClassesPerPort:    t.Classes,
		BufferBytes:       t.BufferSize(),
		CellBytes:         t.CellBytes,
		ECNThresholdBytes: t.ECNThresholdBytes,
		Scheduler:         sched,
		DRRQuantum:        t.DRRQuantum,
	}

	faults := spec.Faults.config(spec.Seed)
	var net *netsim.Network
	switch t.Kind {
	case LeafSpine:
		rates := map[int]float64{}
		for id := range t.DegradedPorts {
			rates[id] = t.hostRate(id)
		}
		net = netsim.LeafSpine(netsim.LeafSpineConfig{
			Spines: t.Spines, Leaves: t.Leaves, HostsPerLeaf: t.HostsPerLeaf,
			HostLinkBps: t.LinkBps, SpineLinkBps: t.SpineLinkBps,
			LinkDelay:       t.LinkDelay,
			LeafSwitch:      baseCfg,
			SpineSwitch:     baseCfg,
			HostRates:       rates,
			MakeLeafPolicy:  mkPolicy,
			MakeSpinePolicy: mkPolicy,
			Faults:          faults,
			Seed:            spec.Seed,
		})
	default:
		rates := make([]float64, t.Hosts)
		for i := range rates {
			rates[i] = t.hostRate(i)
		}
		scfg := baseCfg
		scfg.Policy, scfg.Occamy = mkPolicy()
		net = netsim.SingleSwitch(netsim.SingleSwitchConfig{
			HostRates: rates,
			LinkDelay: t.LinkDelay,
			Switch:    scfg,
			Faults:    faults,
			Seed:      spec.Seed,
		})
	}
	var tickers []*sim.Ticker
	for _, sw := range net.Switches {
		if tk := wireClocks(sw, net.Eng); tk != nil {
			tickers = append(tickers, tk)
		}
	}
	return net, tickers
}

// dropUtilSampler returns the Fig 7 probe for sw — it appends the
// switch's buffer and memory-bandwidth utilization to res at every loss
// that is not an expulsion — or a no-op unless the spec selects a
// drop_*_util_* column, so every other run meters nothing. It is the
// only reader of the switch's memory-bandwidth meter and switches it on;
// callers ask before traffic starts.
func dropUtilSampler(res *Result, sw *switchsim.Switch) func(switchsim.DropReason) {
	isDropUtil := func(m string) bool { return strings.HasPrefix(m, "drop_") }
	if !slices.ContainsFunc(res.Spec.Metrics, isDropUtil) {
		return func(switchsim.DropReason) {}
	}
	sw.EnableMemBandwidthMeter()
	return func(reason switchsim.DropReason) {
		if reason == switchsim.DropExpelled {
			return
		}
		res.DropBufUtil = append(res.DropBufUtil, sw.BufferUtilization())
		res.DropMemBWUtil = append(res.DropMemBWUtil, sw.MemBandwidthUtilization())
	}
}

// sparseInterval is the default query spacing: 10× the unloaded QCT,
// at least 4ms, so a congested query still finishes before the next
// (the §6.2 1% query load).
func sparseInterval(querySize int64, t Topology) sim.Duration {
	ivl := 10 * workload.IdealFCT(querySize, t.LinkBps, oneWayBase(t))
	if ivl < 4*sim.Millisecond {
		ivl = 4 * sim.Millisecond
	}
	return ivl
}

// oneWayBase returns the base one-way latency used as the slowdown
// denominator: both links of a star, or the four links and four MTU
// serializations of a cross-spine path.
func oneWayBase(t Topology) sim.Duration {
	if t.Kind == LeafSpine {
		ser := sim.Duration(float64(pkt.MTU*8) / t.LinkBps * float64(sim.Second))
		return 4*t.LinkDelay + 4*ser
	}
	return 2 * t.LinkDelay
}

// startStop is a started workload's control surface.
type startStop struct {
	stop     func()
	timeouts func() int64
	launched func() int64
	done     func() int64
}

// phases slices [0, horizon) into the workload's on-windows.
func phases(w Workload, horizon sim.Duration) [][2]sim.Time {
	if w.OnTime <= 0 {
		return [][2]sim.Time{{0, sim.Time(horizon)}}
	}
	var out [][2]sim.Time
	period := w.OnTime + w.OffTime
	for t := sim.Duration(0); t < horizon; t += period {
		end := t + w.OnTime
		if end > horizon {
			end = horizon
		}
		out = append(out, [2]sim.Time{sim.Time(t), sim.Time(end)})
	}
	return out
}

// startRounds launches one generator instance per on-phase. mk builds a
// fresh instance returning its Start and a rounds counter. The phase
// windows are half-open [start, end) while the generators' until is
// inclusive, so the end is pulled back one virtual nanosecond — without
// it a round interval dividing OnTime exactly would fire a round inside
// the off window.
func startRounds(w Workload, horizon sim.Duration,
	mk func() (start func(from, until sim.Time), stop func(), rounds func() int64)) startStop {
	var stops []func()
	var counts []func() int64
	for _, ph := range phases(w, horizon) {
		start, stop, rounds := mk()
		start(ph[0], ph[1]-1)
		stops = append(stops, stop)
		counts = append(counts, rounds)
	}
	return startStop{
		stop: func() {
			for _, s := range stops {
				s()
			}
		},
		launched: func() int64 {
			var n int64
			for _, c := range counts {
				n += c()
			}
			return n
		},
	}
}

// runTransport executes a spec whose workloads ride the transport stack.
func runTransport(spec Spec, canceled func() bool, progress ProgressFunc) (*Result, error) {
	net, tickers := buildNetwork(spec)
	recs := switchsim.NewRecorders(net.Switches)
	defer recycle(net.Eng, net.Switches, recs, net.Pool)
	res := &Result{
		Spec:        spec,
		Workloads:   make([]WorkloadStats, len(spec.Workloads)),
		BufferBytes: spec.Topology.BufferSize(),
	}
	for _, sw := range net.Switches {
		sample := dropUtilSampler(res, sw)
		sw.DropHook = func(p *pkt.Packet, _ int, r switchsim.DropReason) {
			sample(r)
			net.Pool.Put(p)
		}
	}
	oneWay := oneWayBase(spec.Topology)
	nHosts := spec.Topology.NumHosts()
	allHosts := make([]pkt.NodeID, nHosts)
	for i := range allHosts {
		allHosts[i] = pkt.NodeID(i)
	}

	gate := spec.gatingIncast()
	gateClient := -1
	if gate >= 0 {
		gateClient = spec.Workloads[gate].Client
	}
	horizon := spec.Warmup + spec.Duration

	running := make([]startStop, len(spec.Workloads))
	for i := range spec.Workloads {
		w := spec.Workloads[i]
		ws := &res.Workloads[i]
		ws.Kind, ws.Label = w.Kind, w.label(i)
		col := &ws.Col
		newCC, _ := ccFor(w)
		opts := transport.Options{DupThresh: w.DupThresh}

		// Host set: exclude the gating incast client on request.
		hosts := allHosts
		if w.ExcludeClient && gateClient >= 0 {
			hosts = nil
			for _, h := range allHosts {
				if int(h) != gateClient {
					hosts = append(hosts, h)
				}
			}
		}

		switch w.Kind {
		case WLBackground:
			dist, _ := distFor(w)
			running[i] = startRounds(w, horizon, func() (func(from, until sim.Time), func(), func() int64) {
				bg := &workload.Background{
					Net: net, Hosts: hosts, Load: w.Load, LinkBps: spec.Topology.LinkBps,
					Dist: dist(), Priority: w.Priority, ECN: true, NewCC: newCC, Opts: opts,
					Collector: col, OneWayBase: oneWay,
				}
				return bg.Start, bg.Stop, bg.Started
			})
		case WLPermutation:
			running[i] = startRounds(w, horizon, func() (func(from, until sim.Time), func(), func() int64) {
				g := &workload.Permutation{
					Net: net, Hosts: hosts, FlowSize: w.FlowSize, Load: w.Load,
					LinkBps: spec.Topology.LinkBps, Stride: w.Stride, RotateStride: w.RotateStride,
					Priority: w.Priority, ECN: true, NewCC: newCC, Opts: opts,
					Collector: col, OneWayBase: oneWay,
				}
				return g.Start, g.Stop, g.Rounds
			})
		case WLAllToAll:
			running[i] = startRounds(w, horizon, func() (func(from, until sim.Time), func(), func() int64) {
				g := &workload.AllToAll{
					Net: net, Hosts: hosts, FlowSize: w.FlowSize, Load: w.Load,
					LinkBps:  spec.Topology.LinkBps,
					Priority: w.Priority, ECN: true, NewCC: newCC, Opts: opts,
					Collector: col, OneWayBase: oneWay,
				}
				return g.Start, g.Stop, g.Rounds
			})
		case WLAllReduce:
			running[i] = startRounds(w, horizon, func() (func(from, until sim.Time), func(), func() int64) {
				g := &workload.AllReduce{
					Net: net, Hosts: hosts, FlowSize: w.FlowSize, Load: w.Load,
					LinkBps:  spec.Topology.LinkBps,
					Priority: w.Priority, ECN: true, NewCC: newCC, Opts: opts,
					Collector: col, OneWayBase: oneWay,
				}
				return g.Start, g.Stop, g.Rounds
			})
		case WLLongLived:
			// Persistent flows from the last hosts toward the client port,
			// alternating over the final two hosts (the Fig 6 companions).
			dst := pkt.NodeID(0)
			if w.Client > 0 {
				dst = pkt.NodeID(w.Client)
			}
			for f := 0; f < w.Count; f++ {
				src := allHosts[nHosts-1-f%2]
				if src == dst {
					src = allHosts[(int(dst)+1)%nHosts]
				}
				net.StartFlow(0, src, dst, 1<<40, netsim.FlowOptions{
					Priority: w.Priority, ECN: true, NewCC: newCC, Transport: opts,
				})
			}
			count := int64(w.Count)
			running[i] = startStop{launched: func() int64 { return count }}
		case WLIncast:
			q := &workload.Incast{
				Net: net, Fanout: w.Fanout, QuerySize: w.QuerySize,
				QPS: w.QPS, Interval: w.Interval,
				Priority: w.Priority, ECN: true, NewCC: newCC, Opts: opts,
				Collector: col, LinkBps: spec.Topology.LinkBps, OneWayBase: oneWay,
			}
			if w.Client < 0 {
				q.RandomClient = true
				q.Servers = allHosts
			} else {
				q.Client = pkt.NodeID(w.Client)
				nServers := nHosts - 1
				if w.Servers > 0 && w.Servers < nServers {
					nServers = w.Servers
				}
				for _, h := range allHosts {
					if int(h) != w.Client {
						q.Servers = append(q.Servers, h)
					}
					if len(q.Servers) == nServers {
						break
					}
				}
			}
			if q.Interval == 0 && q.QPS == 0 {
				q.Interval = sparseInterval(w.QuerySize, spec.Topology)
			}
			q.Start(spec.Warmup, horizon)
			running[i] = startStop{
				stop:     q.Stop,
				timeouts: q.Timeouts,
				launched: q.Queries,
				done:     q.Done,
			}
		}
	}

	// Occupancy recording across all switches: one aligned sampler
	// drives every recorder, so fabric traces share timestamps.
	res.SampleEvery = samplePeriod(horizon)
	sampler := net.Eng.Every(0, res.SampleEvery, func() { res.sample(net.Eng.Now(), recs) })

	// Run: a gated scenario ends when its queries are answered (bounded
	// by a straggler deadline); an ungated one runs to the horizon.
	var gated *startStop
	var gateQueries int64
	if gate >= 0 {
		gated = &running[gate]
		gateQueries = int64(spec.Workloads[gate].Queries)
	}
	deadline := horizon + 500*sim.Millisecond
	for net.Eng.Now() < sim.Time(deadline) {
		if canceled != nil && canceled() {
			return nil, ErrCanceled
		}
		if progress != nil {
			progress(RunProgress{SimNow: net.Eng.Now(), SimHorizon: horizon, Events: net.Eng.Processed()})
		}
		if gated != nil {
			done := gated.done()
			if done >= gateQueries {
				break
			}
			// Past the horizon no new queries are issued; once every
			// issued one is answered there is nothing left to wait for
			// (quick scales may issue fewer than the budget).
			if net.Eng.Now() >= sim.Time(horizon) && done >= gated.launched() {
				break
			}
		} else if net.Eng.Now() >= sim.Time(horizon) {
			break
		}
		net.Eng.RunFor(5 * sim.Millisecond)
	}
	sampler.Stop()
	for _, tk := range tickers {
		tk.Stop()
	}
	for i := range running {
		if running[i].stop != nil {
			running[i].stop()
		}
		if running[i].timeouts != nil {
			res.Workloads[i].Timeouts = running[i].timeouts()
		}
		if running[i].launched != nil {
			res.Workloads[i].Launched = running[i].launched()
		}
		if running[i].done != nil {
			res.Workloads[i].Done = running[i].done()
		}
	}
	if net.Faults != nil {
		res.FaultLinks = net.Faults.Snapshot()
	}
	return finishResult(res, net.Switches, recs, net.Eng, horizon, progress)
}

// runRaw executes a raw-injection spec: packets go straight into one
// switch, no hosts, no transport.
func runRaw(spec Spec, canceled func() bool, progress ProgressFunc) (*Result, error) {
	t := spec.Topology
	eng := sim.NewEngine()
	policy, occ, _ := spec.Policy.Build(t.Classes)
	sched, _ := t.schedKind()
	sw := switchsim.New("sw0", eng, switchsim.Config{
		Ports:             t.Hosts,
		ClassesPerPort:    t.Classes,
		BufferBytes:       t.BufferSize(),
		CellBytes:         t.CellBytes,
		Policy:            policy,
		Occamy:            occ,
		ECNThresholdBytes: t.ECNThresholdBytes,
		Scheduler:         sched,
		DRRQuantum:        t.DRRQuantum,
	})
	pool := pkt.NewPool()
	switches := []*switchsim.Switch{sw}
	recs := switchsim.NewRecorders(switches)
	defer recycle(eng, switches, recs, pool)
	for i := 0; i < t.Hosts; i++ {
		sw.AttachPort(i, t.hostRate(i), 0, pool.Put)
	}
	sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })
	if tk := wireClocks(sw, eng); tk != nil {
		defer tk.Stop()
	}

	res := &Result{
		Spec:        spec,
		Workloads:   make([]WorkloadStats, len(spec.Workloads)),
		BufferBytes: t.BufferSize(),
	}
	injectors := make([]*injector, len(spec.Workloads))
	sample := dropUtilSampler(res, sw)
	sw.DropHook = func(p *pkt.Packet, q int, r switchsim.DropReason) {
		if i := int(p.FlowID) - 1; i >= 0 && i < len(res.Workloads) {
			res.Workloads[i].Drops++
		}
		sample(r)
		pool.Put(p)
	}
	horizon := spec.Warmup + spec.Duration
	for i, w := range spec.Workloads {
		res.Workloads[i].Kind, res.Workloads[i].Label = w.Kind, w.label(i)
		in := &injector{
			eng: eng, sw: sw, dst: pkt.NodeID(w.DstPort),
			prio: w.Priority, pktSize: w.PktSize, flowID: uint64(i + 1), pool: pool,
		}
		injectors[i] = in
		switch w.Kind {
		case WLCBR:
			in.startCBR(sim.Time(w.At), w.RateBps)
		case WLBurst:
			in.burst(sim.Time(w.At), w.Bytes, w.RateBps)
		}
	}
	res.SampleEvery = samplePeriod(horizon)
	sampler := eng.Every(0, res.SampleEvery, func() { res.sample(eng.Now(), recs) })

	for eng.Now() < sim.Time(horizon) {
		if canceled != nil && canceled() {
			return nil, ErrCanceled
		}
		if progress != nil {
			progress(RunProgress{SimNow: eng.Now(), SimHorizon: horizon, Events: eng.Processed()})
		}
		step := eng.Now() + sim.Time(5*sim.Millisecond)
		if step > sim.Time(horizon) {
			step = sim.Time(horizon)
		}
		eng.RunUntil(step)
	}
	for _, in := range injectors {
		in.stop()
	}
	sampler.Stop()
	eng.Run() // drain the queues: injection has stopped, events are finite
	for i := range injectors {
		res.Workloads[i].SentPackets = injectors[i].sent
		res.Workloads[i].SentBytes = injectors[i].bytes
	}
	return finishResult(res, switches, recs, eng, horizon, progress)
}

// recycle hands the next run what a run built and its Result does not hold.
func recycle(eng *sim.Engine, switches []*switchsim.Switch, recs []*switchsim.Recorder, pool *pkt.Pool) {
	switchsim.Park(switches, recs)
	eng.Recycle()
	pool.Recycle()
}

// samplePeriod adapts occupancy sampling to the run length: ~1000
// samples, clamped to [1µs, 100µs].
func samplePeriod(horizon sim.Duration) sim.Duration {
	p := horizon / 1000
	if p < sim.Microsecond {
		p = sim.Microsecond
	}
	if p > 100*sim.Microsecond {
		p = 100 * sim.Microsecond
	}
	return p
}

// sample takes every recorder's sample at now, the next instant of the
// run's grid: a trace implies its times, so a tick off it fails the run.
func (r *Result) sample(now sim.Time, recs []*switchsim.Recorder) {
	if n := recs[0].Samples(); now != sim.Time(n)*r.SampleEvery && r.offGrid == nil {
		r.offGrid = fmt.Errorf("scenario %q: sample %d taken at %v, off the %v grid a trace implies", r.Spec.Name, n, now, r.SampleEvery)
	}
	for _, rec := range recs {
		rec.Sample()
	}
}

// simulatedEvents totals the events of every run this process finished.
var simulatedEvents atomic.Uint64

// finishResult snapshots switch state and telemetry into the result,
// finishing each recorder into its exact slab first, lays the sample grid
// out as its times, and reports the end of the run to progress.
func finishResult(res *Result, switches []*switchsim.Switch, recs []*switchsim.Recorder, eng *sim.Engine, horizon sim.Duration, progress ProgressFunc) (*Result, error) {
	if res.offGrid != nil {
		return nil, res.offGrid
	}
	for i, sw := range switches {
		st := sw.Stats()
		res.PerSwitch = append(res.PerSwitch, st)
		res.Buffered = append(res.Buffered, sw.BufferedPackets())
		res.Occupancy = append(res.Occupancy, sw.Occupancy())
		res.Total.RxPackets += st.RxPackets
		res.Total.TxPackets += st.TxPackets
		res.Total.TxBytes += st.TxBytes
		res.Total.DropsAdmission += st.DropsAdmission
		res.Total.DropsNoMemory += st.DropsNoMemory
		res.Total.DropsExpelled += st.DropsExpelled
		res.Total.ECNMarked += st.ECNMarked
		if err := recs[i].Finish(); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", res.Spec.Name, err)
		}
		res.Telemetry = append(res.Telemetry, newTelemetry(sw, recs[i]))
		if peak := recs[i].Peak(); peak > res.MaxOccupancy {
			res.MaxOccupancy = peak
		}
	}
	res.SampleTimes = make([]sim.Time, recs[0].Samples())
	for i := range res.SampleTimes {
		res.SampleTimes[i] = sim.Time(i) * res.SampleEvery
	}
	res.Events = eng.Processed()
	simulatedEvents.Add(res.Events)
	if progress != nil {
		progress(RunProgress{SimNow: eng.Now(), SimHorizon: horizon, Events: res.Events, Final: true})
	}
	return res, nil
}
