package workload

import (
	"occamy/internal/metrics"
	"occamy/internal/netsim"
	"occamy/internal/pkt"
	"occamy/internal/sim"
	"occamy/internal/transport"
)

// IdealFCT returns the unloaded completion time of a transfer: one-way
// base latency plus serialization at the bottleneck, including header
// overhead per MSS.
func IdealFCT(size int64, bottleneckBps float64, oneWayBase sim.Duration) sim.Duration {
	segs := (size + int64(pkt.MSS) - 1) / int64(pkt.MSS)
	wire := size + segs*int64(pkt.HeaderBytes)
	ser := sim.Duration(float64(wire*8) / bottleneckBps * float64(sim.Second))
	return oneWayBase + ser
}

// Background generates 1-to-1 flows: Poisson arrivals, random distinct
// (src, dst) pairs among Hosts, sizes from Dist, targeting an average
// per-host load fraction of the access link.
type Background struct {
	Net   *netsim.Network
	Hosts []pkt.NodeID
	// Load is the target fraction of each host's LinkBps consumed on
	// average (e.g. 0.5 for the DPDK experiments, 0.9 for §6.4).
	Load    float64
	LinkBps float64
	Dist    *CDF
	// Flow options applied to every generated flow.
	Priority int
	ECN      bool
	NewCC    func(mss, segs int) transport.CC
	Opts     transport.Options
	// Collector receives (size, fct, ideal) for every completed flow.
	Collector *metrics.Collector
	// OneWayBase is used for the ideal-FCT slowdown denominator.
	OneWayBase sim.Duration

	rand    *sim.Rand
	stopped bool
	started int64
}

// Start begins generating flows at time from, stopping new arrivals at
// time until (in-flight flows still finish).
func (b *Background) Start(from, until sim.Time) {
	if b.Load <= 0 || len(b.Hosts) < 2 {
		panic("workload: Background needs Load > 0 and >= 2 hosts")
	}
	b.rand = b.Net.Rand.Fork()
	// Aggregate flow arrival rate: load × aggregate access bandwidth /
	// mean flow size (wire bytes ≈ payload for sizing purposes).
	mean := b.Dist.Mean()
	lambda := b.Load * b.LinkBps * float64(len(b.Hosts)) / 8 / mean // flows/sec
	var schedule func(at sim.Time)
	schedule = func(at sim.Time) {
		if at > until || b.stopped {
			return
		}
		b.Net.Eng.At(at, func() {
			b.launch()
			gap := sim.Duration(b.rand.Exp(1/lambda) * float64(sim.Second))
			if gap < 1 {
				gap = 1
			}
			schedule(at + gap)
		})
	}
	schedule(from)
}

// Stop halts new arrivals.
func (b *Background) Stop() { b.stopped = true }

// Started returns the number of flows launched.
func (b *Background) Started() int64 { return b.started }

func (b *Background) launch() {
	src := b.Hosts[b.rand.Intn(len(b.Hosts))]
	dst := src
	for dst == src {
		dst = b.Hosts[b.rand.Intn(len(b.Hosts))]
	}
	size := b.Dist.Sample(b.rand)
	b.started++
	ideal := IdealFCT(size, b.LinkBps, b.OneWayBase)
	b.Net.StartFlow(b.Net.Eng.Now(), src, dst, size, netsim.FlowOptions{
		Priority:  b.Priority,
		ECN:       b.ECN,
		NewCC:     b.NewCC,
		Transport: b.Opts,
		OnComplete: func(fct sim.Duration) {
			if b.Collector != nil {
				b.Collector.Add(size, fct, ideal)
			}
		},
	})
}

// Incast generates query traffic: a client periodically queries Fanout
// servers, each of which responds with QuerySize/Fanout bytes; the query
// completes when every response has fully arrived (QCT).
type Incast struct {
	Net     *netsim.Network
	Client  pkt.NodeID
	Servers []pkt.NodeID
	// RandomClient, when set, picks a different client per query from
	// Servers (excluding it from that query's responders) — the
	// large-scale simulation's query pattern.
	RandomClient bool
	Fanout       int
	// QuerySize is the total response volume per query.
	QuerySize int64
	// QPS is the Poisson query rate; 0 means one query per Interval.
	QPS      float64
	Interval sim.Duration

	Priority int
	ECN      bool
	NewCC    func(mss, segs int) transport.CC
	Opts     transport.Options

	// Collector receives (QuerySize, qct, ideal) per completed query.
	Collector  *metrics.Collector
	LinkBps    float64
	OneWayBase sim.Duration

	// OnQueryDone, if set, also observes each query completion.
	OnQueryDone func(qct sim.Duration)

	rand    *sim.Rand
	stopped bool
	queries int64
	done    int64
	// each query's first response flow ID; its Fanout flows start together,
	// so their IDs run on from it (RTO counting for the p99 story)
	firstIDs []uint64
}

// Start begins issuing queries in [from, until] (inclusive: Start(t, t)
// issues one query). Fanout may exceed the
// server count: servers then carry multiple response flows per query
// (the paper's incast degree 40 across 5 senders).
func (g *Incast) Start(from, until sim.Time) {
	min := 1
	if g.RandomClient {
		min = 2 // the client is excluded from its own responders
	}
	if g.Fanout <= 0 || len(g.Servers) < min {
		panic("workload: Incast needs Fanout > 0 and enough servers")
	}
	g.rand = g.Net.Rand.Fork()
	var schedule func(at sim.Time)
	schedule = func(at sim.Time) {
		if at > until || g.stopped {
			return
		}
		g.Net.Eng.At(at, func() {
			g.query()
			var gap sim.Duration
			if g.QPS > 0 {
				gap = sim.Duration(g.rand.Exp(1/g.QPS) * float64(sim.Second))
			} else {
				gap = g.Interval
			}
			if gap < 1 {
				gap = 1
			}
			schedule(at + gap)
		})
	}
	schedule(from)
}

// Stop halts new queries.
func (g *Incast) Stop() { g.stopped = true }

// Queries returns the number issued; Done the number fully answered.
func (g *Incast) Queries() int64 { return g.queries }

// Done returns the number of completed queries.
func (g *Incast) Done() int64 { return g.done }

// Timeouts sums RTO events across all response flows issued so far.
func (g *Incast) Timeouts() int64 {
	var t int64
	for _, first := range g.firstIDs {
		for id := first; id < first+uint64(g.Fanout); id++ {
			t += g.Net.Flow(id).Timeouts
		}
	}
	return t
}

func (g *Incast) query() {
	g.queries++
	start := g.Net.Eng.Now()
	per := g.QuerySize / int64(g.Fanout)
	if per < 1 {
		per = 1
	}
	remaining := g.Fanout
	client := g.Client
	// Pick Fanout distinct servers (excluding a randomly drawn client
	// when in random-client mode).
	perm := g.rand.Perm(len(g.Servers))
	if g.RandomClient {
		client = g.Servers[perm[len(perm)-1]]
		perm = perm[:len(perm)-1]
	}
	ideal := IdealFCT(g.QuerySize, g.LinkBps, g.OneWayBase)
	for i := 0; i < g.Fanout; i++ {
		srv := g.Servers[perm[i%len(perm)]]
		if id := g.Net.StartFlow(start, srv, client, per, netsim.FlowOptions{
			Priority:  g.Priority,
			ECN:       g.ECN,
			NewCC:     g.NewCC,
			Transport: g.Opts,
			OnComplete: func(fct sim.Duration) {
				remaining--
				if remaining == 0 {
					qct := g.Net.Eng.Now() - start
					g.done++
					if g.Collector != nil {
						g.Collector.Add(g.QuerySize, qct, ideal)
					}
					if g.OnQueryDone != nil {
						g.OnQueryDone(qct)
					}
				}
			},
		}); i == 0 {
			g.firstIDs = append(g.firstIDs, id)
		}
	}
}
