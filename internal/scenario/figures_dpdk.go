package scenario

import (
	"occamy/internal/experiments"
	"occamy/internal/sim"
)

// DPDKScale bounds the runtime of the Fig 13–16 sweeps (FigureScales).
type DPDKScale struct {
	Hosts   int
	Queries int
	// SizeFracs are the query sizes as fractions of the buffer.
	SizeFracs []float64
	// Loads are the Fig 14 background loads.
	Loads []float64
	// Alphas are the Fig 16 sweep values.
	Alphas []float64
	Seed   uint64
}

// testbedSpec completes a software-switch spec whose last workload is
// the gating incast into host 0: each query carries sizeFrac × buffer,
// queries are sparse (sparseInterval apart, as in the paper's 1% query
// load) after a 5ms warmup, and the horizon fits exactly `queries` of
// them.
func testbedSpec(s Spec, sizeFrac float64, queries int) Spec {
	q := &s.Workloads[len(s.Workloads)-1]
	q.QuerySize = int64(sizeFrac * float64(s.Topology.BufferSize()))
	q.Queries = queries
	s.Warmup = 5 * sim.Millisecond
	s.Duration = sim.Duration(queries) * sparseInterval(q.QuerySize, s.Topology)
	return s
}

// spec reproduces the software-switch testbed of §6.2: sc.Hosts hosts at
// 10Gbps around one shared-memory switch with 5.12KB of buffer per port
// per Gbps (410KB at the paper's 8×10G), every other host answering host
// 0's queries over web-search background at bgLoad (0 disables it). An
// empty sched is the single-class setup of Fig 13; "drr"/"sp" is the
// two-class setup of Figs 14–16: queries in class 0, CUBIC background in
// class 1.
func (sc DPDKScale) spec(p Policy, sched string, bgLoad, sizeFrac float64) Spec {
	s := Spec{
		Topology: Topology{
			Kind: SingleSwitch, Hosts: sc.Hosts, LinkBps: 10e9,
			LinkDelay: 5 * sim.Microsecond, BufferKBPerPortPerGbps: 5.12,
		},
		Policy: p,
		Seed:   sc.Seed,
	}
	bg := Workload{Kind: WLBackground, Load: bgLoad}
	if sched != "" {
		s.Topology.Classes, s.Topology.Scheduler = 2, sched
		bg.Priority, bg.CC = 1, "cubic"
	}
	if bgLoad > 0 {
		s.Workloads = append(s.Workloads, bg)
	}
	s.Workloads = append(s.Workloads, Workload{Kind: WLIncast, Client: 0})
	return testbedSpec(s, sizeFrac, sc.Queries)
}

// fig13Figure runs the Fig 13 scenario over a policy line-up; small adds
// the p99 FCT of sub-100KB background flows.
func (sc DPDKScale) fig13Figure(id, title string, policies []Policy, small bool) Figure {
	columns := []string{"size_frac", "policy", "avg_qct_ms", "p99_qct_ms", "bg_avg_fct_ms"}
	if small {
		columns = append(columns, "small_bg_p99_ms")
	}
	var rows []figRow
	for _, frac := range sc.SizeFracs {
		for _, p := range policies {
			rows = append(rows, figRow{
				label: []string{experiments.F(frac), paperName(p)},
				specs: []Spec{sc.spec(p, "", 0.5, frac)},
			})
		}
	}
	return tableFigure(id, title, append(columns, "rtos"), rows, func(rs []*Result) []string {
		r := rs[0]
		cells := r.Row([]string{"qct_avg_ms", "qct_p99_ms", "bg_avg_fct_ms"})
		if small {
			cells = append(cells, experiments.Ms(r.loadStats().Col.Small(100_000).P99FCT()))
		}
		return append(cells, experiments.F(float64(r.incastStats().Timeouts)))
	})
}

// Fig13SoftwareSwitch: burst absorption on the software switch — query
// QCT (avg, p99) and background FCT (overall avg, small p99) versus
// query size, for the standard policy line-up. Background is web-search
// at 50% load in the same (single) traffic class.
func Fig13SoftwareSwitch(sc DPDKScale) Figure {
	return sc.fig13Figure("fig13", "software switch: QCT/FCT vs query size (bg web-search 50%)",
		standardComparison(), true)
}

// ExtrasBakeoff runs the Fig 13 software-switch scenario across the
// extended policy zoo — an extension beyond the paper that positions
// Occamy against the §7 related work under identical traffic.
func ExtrasBakeoff(sc DPDKScale) Figure {
	return sc.fig13Figure("extras", "extension: all implemented policies on the Fig 13 scenario",
		extendedComparison(), false)
}

// Fig14Isolation: query and background in two DRR-scheduled classes;
// background is CUBIC at increasing load. Non-preemptive BMs let the
// background queue's buffer hurt query QCT.
func Fig14Isolation(sc DPDKScale) Figure {
	var rows []figRow
	for _, load := range sc.Loads {
		for _, p := range standardComparison() {
			rows = append(rows, figRow{
				label: []string{experiments.F(load), paperName(p)},
				specs: []Spec{sc.spec(p, "drr", load, 0.6)},
			})
		}
	}
	return tableFigure("fig14", "performance isolation: QCT vs background load (DRR, 2 classes)",
		[]string{"bg_load", "policy", "avg_qct_ms", "p99_qct_ms", "rtos"},
		rows, func(rs []*Result) []string {
			return append(rs[0].Row([]string{"qct_avg_ms", "qct_p99_ms"}),
				experiments.F(float64(rs[0].incastStats().Timeouts)))
		})
}

// Fig15BufferChoking: strict priority, α=8 for the HP class and α=1 for
// LP. Low-priority background should not delay high-priority queries —
// but non-preemptive BMs choke.
func Fig15BufferChoking(sc DPDKScale) Figure {
	var rows []figRow
	for _, f := range sc.SizeFracs {
		frac := f + 1.0 // the paper sweeps 150–250% of buffer
		for _, p := range standardComparison() {
			name := paperName(p)
			p.AlphaHP, p.AlphaLP = 8, 1
			rows = append(rows, figRow{
				label: []string{experiments.F(frac), name},
				specs: []Spec{sc.spec(p, "sp", 0, frac), sc.spec(p, "sp", 0.5, frac)},
			})
		}
	}
	return tableFigure("fig15", "buffer choking: HP QCT with vs without LP background (SP)",
		[]string{"size_frac", "policy", "qct_no_bg_ms", "qct_with_bg_ms", "p99_no_bg_ms", "p99_with_bg_ms"},
		rows, func(rs []*Result) []string {
			noBg, withBg := rs[0], rs[1]
			return []string{
				noBg.cell("qct_avg_ms"), withBg.cell("qct_avg_ms"),
				noBg.cell("qct_p99_ms"), withBg.cell("qct_p99_ms")}
		})
}

// Fig16AlphaImpact: p99 QCT for DT and Occamy across α — DT is best at
// small α and degrades with large α; Occamy improves with α.
func Fig16AlphaImpact(sc DPDKScale) Figure {
	var rows []figRow
	for _, alpha := range sc.Alphas {
		for _, f := range sc.SizeFracs {
			frac := f + 0.6 // paper sweeps 100–180% of buffer
			rows = append(rows, figRow{
				label: []string{experiments.F(alpha), experiments.F(frac)},
				specs: []Spec{
					sc.spec(Policy{Kind: "dt", Alpha: alpha}, "drr", 0.5, frac),
					sc.spec(Policy{Kind: "occamy", Alpha: alpha}, "drr", 0.5, frac),
				},
			})
		}
	}
	return tableFigure("fig16", "impact of alpha on p99 QCT (DRR, 2 classes, bg 50%)",
		[]string{"alpha", "size_frac", "dt_p99_ms", "occamy_p99_ms"},
		rows, func(rs []*Result) []string {
			return []string{rs[0].cell("qct_p99_ms"), rs[1].cell("qct_p99_ms")}
		})
}

// classDrops sums the admission and no-memory drops of one traffic class
// over every queue of every switch.
func (r *Result) classDrops(class int) int64 {
	var n int64
	for i := range r.Telemetry {
		for q := range r.Telemetry[i].Queues {
			if qt := &r.Telemetry[i].Queues[q]; qt.Class == class {
				n += qt.Stats.Drops()
			}
		}
	}
	return n
}

// Fig6Anomalies reproduces the §3.1 motivation measurements on the
// CE6865-like testbed: 8 hosts at 40Gbps, 2MB shared buffer, DT,
// DCTCP with a 300KB ECN threshold, 8 strict-priority classes.
//
// (a) Buffer choking: a high-priority incast of degree 40 (8 flows from
// each of 5 servers) competes with 14 long-lived low-priority flows
// from 2 other hosts, all heading to the same client. DT is calibrated
// so the incast deserves ~1MB either way (α=8 with companions, α=1
// alone). The choking *mechanism* reproduces directly: the LP queues
// hold most of the buffer and cannot drain (strict priority), so HP
// packets drop before the incast reaches its deserved share — reported
// in the hp_drops (class-0 drops) and peak_buffer_pct columns.
//
// (b) Inter-port influence: the companions instead congest other
// receivers, isolating the pure arrival-rate agility effect.
//
// Note on magnitudes (recorded in SCENARIOS.md, "Figures are specs"):
// the paper's 8× QCT inflation is carried by the testbed's stock Linux
// stack turning those drops into retransmission timeouts; this
// repository's transport recovers the same drops in ~1 RTT, so the QCT
// columns understate the damage while the drop columns show the anomaly
// itself.
//
// Zero arguments select 10 queries at 1×, 2.5× and 5× the buffer.
func Fig6Anomalies(queries int, sizeFracs []float64) Figure {
	if queries == 0 {
		queries = 10
	}
	if len(sizeFracs) == 0 {
		sizeFracs = []float64{1, 2.5, 5}
	}
	// The stock-Linux testbed: every flow uses a fixed DupThresh of 3.
	point := func(frac float64, p Policy, competing ...Workload) Spec {
		return testbedSpec(Spec{
			Topology: Topology{
				Kind: SingleSwitch, Hosts: 8, LinkBps: 40e9, LinkDelay: 5 * sim.Microsecond,
				BufferBytes: 2 << 20, ECNThresholdBytes: 300_000,
				Classes: 8, Scheduler: "sp",
			},
			Policy: p,
			Workloads: append(append([]Workload(nil), competing...), Workload{
				Kind: WLIncast, Client: 0, Servers: 5, Fanout: 40, DupThresh: 3,
			}),
			Seed: 42,
		}, frac, queries)
	}
	alone := Policy{Kind: "dt", Alpha: 1}
	calibrated := Policy{Kind: "dt", Alpha: 1, AlphaHP: 8, AlphaLP: 1}
	// Choking companions: 14 persistent flows from the last two hosts to
	// the client, one pair per low-priority class.
	var companions []Workload
	for class := 1; class < 8; class++ {
		companions = append(companions, Workload{
			Kind: WLLongLived, Count: 2, Priority: class, Client: 0, DupThresh: 3,
		})
	}
	interPort := Workload{
		Kind: WLBackground, Load: 0.5, Priority: 1, ExcludeClient: true, DupThresh: 3,
	}
	var rows []figRow
	for _, c := range []struct {
		name      string
		competing []Workload
	}{
		{"choking(same port)", companions},
		{"inter-port", []Workload{interPort}},
	} {
		for _, frac := range sizeFracs {
			rows = append(rows, figRow{
				label: []string{c.name, experiments.F(frac * 2)},
				specs: []Spec{point(frac, alone), point(frac, calibrated, c.competing...)},
			})
		}
	}
	return tableFigure("fig6", "DT anomalies: incast vs competing traffic (40G, 2MB, SP)",
		[]string{"case", "query_MB", "qct_alone_ms", "qct_competing_ms",
			"hp_drops_alone", "hp_drops_competing", "peak_buffer_pct"},
		rows, func(rs []*Result) []string {
			alone, with := rs[0], rs[1]
			return []string{
				alone.cell("qct_avg_ms"), with.cell("qct_avg_ms"),
				experiments.F(float64(alone.classDrops(0))), experiments.F(float64(with.classDrops(0))),
				with.cell("max_occ_pct")}
		})
}
