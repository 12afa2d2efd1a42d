package scenario

import (
	"occamy/internal/experiments"
	"occamy/internal/sim"
)

// FabricScale bounds the Fig 7/17–23 sweeps (FigureScales; the paper's
// 128-host fabric is `occamy-scenario run <fig> -scale paper`, and slow).
type FabricScale struct {
	Spines, Leaves, HostsPerLeaf int
	Queries                      int
	SizeFracs                    []float64 // query size as fraction of leaf buffer
	FlowSizes                    []int64   // collective background flow sizes
	QueryLoads                   []float64 // Fig 20 sweep
	BufferFactors                []float64 // Fig 23 sweep (KB/port/Gbps)
	Seed                         uint64
}

// slowdownMetrics are the four columns the §6.4 figures share.
var slowdownMetrics = []string{"qct_avg_slow", "qct_p99_slow", "bg_avg_slow", "small_bg_p99_slow"}

// fabricPoint is one run of the §6.4 large-scale simulation: a leaf–
// spine fabric with ECMP and DCTCP hosts, a background workload, and
// incast queries of sizeFrac × buffer from a random client every
// interval.
type fabricPoint struct {
	// x is the point's swept value as it labels the table row.
	x      string
	policy Policy
	bg     Workload
	// kbPerPortPerGbps sizes every switch buffer (the paper emulates
	// Tomahawk at 5.12; Fig 23 sweeps 3.44–9.6).
	kbPerPortPerGbps float64
	sizeFrac         float64
	interval         sim.Duration
	metrics          []string
}

// webSearch is the §6.4 default background: Poisson 1-to-1 web-search
// flows at the given load (>1 allowed: Fig 22).
func webSearch(load float64) Workload { return Workload{Kind: WLBackground, Load: load} }

// spec builds the point's Spec. Zero kbPerPortPerGbps, interval and
// metrics select 5.12, 2ms and the slowdown columns. Queries start 2ms
// in and the horizon leaves 10ms beyond the last one.
func (sc FabricScale) spec(pt fabricPoint) Spec {
	if pt.kbPerPortPerGbps == 0 {
		pt.kbPerPortPerGbps = 5.12
	}
	if pt.interval == 0 {
		pt.interval = 2 * sim.Millisecond
	}
	if pt.metrics == nil {
		pt.metrics = slowdownMetrics
	}
	t := Topology{
		Kind: LeafSpine, Spines: sc.Spines, Leaves: sc.Leaves, HostsPerLeaf: sc.HostsPerLeaf,
		LinkBps: 10e9, BufferKBPerPortPerGbps: pt.kbPerPortPerGbps,
	}
	return Spec{
		Topology: t,
		Policy:   pt.policy,
		Workloads: []Workload{pt.bg, {
			Kind: WLIncast, Client: -1, Fanout: min(16, t.NumHosts()-2),
			QuerySize: int64(pt.sizeFrac * float64(t.BufferSize())),
			Interval:  pt.interval, Queries: sc.Queries,
		}},
		Warmup:   2 * sim.Millisecond,
		Duration: sim.Duration(sc.Queries)*pt.interval + 8*sim.Millisecond,
		Seed:     sc.Seed,
		Metrics:  pt.metrics,
	}
}

// slowdownFigure lays a grid of points out as the standard §6.4 table:
// one slowdown row per point.
func (sc FabricScale) slowdownFigure(id, title string, pts []fabricPoint) Figure {
	rows := make([]figRow, len(pts))
	for i, pt := range pts {
		rows[i] = figRow{
			label: []string{pt.x, paperName(pt.policy)},
			specs: []Spec{sc.spec(pt)},
		}
	}
	return tableFigure(id, title, append([]string{"x", "policy"}, slowdownMetrics...), rows,
		func(rs []*Result) []string { return rs[0].Row(slowdownMetrics) })
}

// Fig7Utilization: CDF of buffer utilization on drop for DT α ∈ {0.5,1}
// (a), and of memory-bandwidth utilization at loads {20,40,90}% (b) —
// the §3 motivation measurements. Each panel is an ordinary grid whose
// specs select the drop_*_util_* columns.
func Fig7Utilization(sc FabricScale) Figure {
	panel := func(id, title, x string, metrics []string, pts []fabricPoint) Figure {
		rows := make([]figRow, len(pts))
		for i, pt := range pts {
			pt.metrics = metrics
			rows[i] = figRow{label: []string{pt.x}, specs: []Spec{sc.spec(pt)}}
		}
		return tableFigure(id, title, []string{x, "p25", "p50", "p75", "p99"}, rows,
			func(rs []*Result) []string { return rs[0].Row(metrics) })
	}
	var aPts, bPts []fabricPoint
	for _, alpha := range []float64{0.5, 1} {
		aPts = append(aPts, fabricPoint{
			x: experiments.F(alpha), policy: Policy{Kind: "dt", Alpha: alpha}, bg: webSearch(0.4), sizeFrac: 0.6,
		})
	}
	for _, load := range []float64{0.2, 0.4, 0.9} {
		bPts = append(bPts, fabricPoint{
			x: experiments.F(load), policy: Policy{Kind: "dt", Alpha: 0.5}, bg: webSearch(load), sizeFrac: 0.6,
		})
	}
	a := panel("fig7a", "buffer utilization on drop (CDF quantiles)", "alpha",
		[]string{"drop_buf_util_p25", "drop_buf_util_p50", "drop_buf_util_p75", "drop_buf_util_p99"}, aPts)
	b := panel("fig7b", "memory bandwidth utilization on drop (CDF quantiles)", "load",
		[]string{"drop_membw_util_p25", "drop_membw_util_p50", "drop_membw_util_p75", "drop_membw_util_p99"}, bPts)
	// Both panels sweep independent runs: fan the five points out together.
	return Figure{
		Specs: append(append([]Spec(nil), a.Specs...), b.Specs...),
		Tables: func(results []*Result) []*Table {
			return append(a.Tables(results[:len(a.Specs)]), b.Tables(results[len(a.Specs):])...)
		},
	}
}

// sizeSweep is the shape Figs 17, 21 and 22 share: query size × policy
// over web-search background at bgLoad.
func (sc FabricScale) sizeSweep(id, title string, policies []Policy, bgLoad float64) Figure {
	var pts []fabricPoint
	for _, frac := range sc.SizeFracs {
		for _, p := range policies {
			pts = append(pts, fabricPoint{x: experiments.F(frac), policy: p, bg: webSearch(bgLoad), sizeFrac: frac})
		}
	}
	return sc.slowdownFigure(id, title, pts)
}

// Fig17LargeScale: web-search background at 90% + incast queries;
// QCT/FCT slowdowns vs query size for the standard line-up.
func Fig17LargeScale(sc FabricScale) Figure {
	return sc.sizeSweep("fig17", "large-scale: slowdowns vs query size (bg web-search 90%)",
		standardComparison(), 0.9)
}

// Fig18AllToAll: all-to-all background, sweeping the collective flow size.
func Fig18AllToAll(sc FabricScale) Figure {
	return sc.collectiveFig("fig18", "all-to-all background", WLAllToAll)
}

// Fig19AllReduce: double-binary-tree all-reduce background.
func Fig19AllReduce(sc FabricScale) Figure {
	return sc.collectiveFig("fig19", "all-reduce (double binary tree) background", WLAllReduce)
}

func (sc FabricScale) collectiveFig(id, title, kind string) Figure {
	var pts []fabricPoint
	for _, fs := range sc.FlowSizes {
		for _, p := range standardComparison() {
			pts = append(pts, fabricPoint{
				x: experiments.F(float64(fs) / 1000), policy: p,
				bg: Workload{Kind: kind, Load: 0.5, FlowSize: fs}, sizeFrac: 0.6,
			})
		}
	}
	return sc.slowdownFigure(id, title+": slowdowns vs flow size", pts)
}

// Fig20QueryLoad: higher query rates (light 10% background).
func Fig20QueryLoad(sc FabricScale) Figure {
	var pts []fabricPoint
	for _, load := range sc.QueryLoads {
		for _, p := range standardComparison() {
			pt := fabricPoint{x: experiments.F(load), policy: p, bg: webSearch(0.1), sizeFrac: 0.8}
			// Query load -> interval: load = size / (interval × link).
			s := sc.spec(pt)
			size := s.Workloads[1].QuerySize
			pt.interval = sim.Duration(float64(size*8) / (load * s.Topology.LinkBps) * float64(sim.Second))
			pts = append(pts, pt)
		}
	}
	return sc.slowdownFigure("fig20", "higher query load: slowdowns vs query load", pts)
}

// Fig21RoundRobinDrop: the ablation — Occamy's round-robin victim
// selection versus always dropping the longest queue.
func Fig21RoundRobinDrop(sc FabricScale) Figure {
	return sc.sizeSweep("fig21", "round-robin vs longest-queue drop (bg 40%)",
		[]Policy{{Kind: "occamy", Alpha: 8}, {Kind: "occamy-ld", Alpha: 8}}, 0.4)
}

// Fig22HeavyLoad: background offered at 120% — expulsion must still find
// redundant bandwidth on the unbalanced links.
func Fig22HeavyLoad(sc FabricScale) Figure {
	return sc.sizeSweep("fig22", "120% background load: slowdowns vs query size",
		standardComparison(), 1.2)
}

// Fig23BufferSize: sweep the buffer per port per Gbps from Tofino-like
// (3.44KB) to Trident2-like (9.6KB).
func Fig23BufferSize(sc FabricScale) Figure {
	var pts []fabricPoint
	for _, factor := range sc.BufferFactors {
		for _, p := range standardComparison() {
			pts = append(pts, fabricPoint{
				x: experiments.F(factor), policy: p, bg: webSearch(0.4),
				kbPerPortPerGbps: factor, sizeFrac: 0.4,
			})
		}
	}
	return sc.slowdownFigure("fig23", "buffer size sweep: slowdowns vs KB/port/Gbps", pts)
}
