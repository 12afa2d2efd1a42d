package scenario

import (
	"fmt"

	"occamy/internal/bm"
	"occamy/internal/experiments"
	"occamy/internal/sim"
)

// burstSpec is the P4-testbed scenario of Fig 11/12 (and the conceptual
// Fig 3): an 8-port 10G chip with 1.2MB of shared buffer whose port 0 is
// pinned at its threshold by long-lived traffic at 2× line rate, and
// whose port 1 later receives a burst of burstBytes at burstBps. Traffic
// is injected raw (the Pktgen role) so queue dynamics reflect the BM
// alone. Workload 0 (queue 0) is the long-lived traffic, workload 1
// (queue 1) the burst.
func burstSpec(p Policy, burstBytes int64, burstBps float64) Spec {
	const buffer, portBps, longBps = 1_200_000, 10e9, 20e9
	// The long-lived queue fills at longBps−portBps net; its steady-state
	// length approaches α/(1+α)·B <= B. Give it time to get there before
	// the burst (the Fig 11/12 premise), then 300µs to settle after it.
	fill := float64(buffer) * 8 / (longBps - portBps)
	at := sim.Duration(1.3 * fill * float64(sim.Second))
	burstDur := sim.Duration(float64(burstBytes*8) / burstBps * float64(sim.Second))
	return Spec{
		Topology: Topology{
			Kind: SingleSwitch, Hosts: 8, LinkBps: portBps, BufferBytes: buffer,
		},
		Policy: p,
		Workloads: []Workload{
			{Kind: WLCBR, Label: "longlived", DstPort: 0, RateBps: longBps},
			{Kind: WLBurst, Label: "burst", DstPort: 1, RateBps: burstBps, Bytes: burstBytes, At: at},
		},
		Duration: at + burstDur + 300*sim.Microsecond,
	}
}

// Fig3DTBehavior reproduces the healthy vs anomalous DT dynamics of
// Fig 3: with a gentle burst DT converges to fair sharing; with a fast
// burst the over-allocated queue cannot release buffer in time and the
// burst drops packets before reaching its fair share.
func Fig3DTBehavior() Figure {
	var rows []figRow
	for _, c := range []struct {
		name string
		rate float64
	}{
		{"healthy(1.5x)", 15e9},
		{"anomalous(10x)", 100e9},
	} {
		rows = append(rows, figRow{
			label: []string{c.name, experiments.F(c.rate / 1e9)},
			specs: []Spec{burstSpec(Policy{Kind: "dt", Alpha: 1}, 600_000, c.rate)},
		})
	}
	return tableFigure("fig3",
		"DT healthy vs anomalous dynamics (burst drops before reaching fair share?)",
		[]string{"case", "burst_rate", "burst_drops", "max_burst_qlen_KB", "fair_share_KB"},
		rows, func(rs []*Result) []string {
			r := rs[0]
			// Fair share with α=1 and two congested queues: B/3.
			return []string{fmt.Sprint(r.Workloads[1].Drops),
				experiments.F(float64(r.Telemetry[0].Queues[1].Peak) / 1000),
				experiments.F(float64(r.BufferBytes) / 3 / 1000)}
		})
}

// fig11Rows bounds each Fig 11 table: the recorder's ~1000 samples are
// strided down to about this many rows.
const fig11Rows = 64

// Fig11QueueEvolution reproduces the queue-length evolution traces:
// Occamy vs DT at α ∈ {1,4}, one table per policy. Rows are strided
// samples of the run's recorder: the long-lived queue, the burst queue,
// and the burst queue's capacity-clamped threshold. Each Result's
// document plots them as overlays (TraceDoc.QueueTracePlot).
func Fig11QueueEvolution() Figure {
	var specs []Spec
	for _, p := range []Policy{
		{Kind: "occamy", Alpha: 1}, {Kind: "occamy", Alpha: 4},
		{Kind: "dt", Alpha: 1}, {Kind: "dt", Alpha: 4},
	} {
		s := burstSpec(p, 800_000, 100e9)
		s.Name, s.Title = "fig11", "queue length evolution (KB)"
		specs = append(specs, s)
	}
	return Figure{Specs: specs, Tables: func(results []*Result) []*Table {
		var out []*Table
		for _, r := range results {
			t := &Table{
				ID:      r.Spec.Name + "/" + r.Spec.Policy.Label(),
				Title:   r.Spec.Title,
				Columns: []string{"t_us", "q1_long", "q2_burst", "T"},
			}
			long, burst := &r.Telemetry[0].Queues[0], &r.Telemetry[0].Queues[1]
			stride := (len(r.SampleTimes) + fig11Rows - 1) / fig11Rows
			for i := 0; i < len(r.SampleTimes); i += stride {
				t.AddRow(experiments.F(r.SampleTimes[i].Micros()),
					experiments.F(long.Series[i]/1000), experiments.F(burst.Series[i]/1000),
					experiments.F(burst.Threshold[i]/1000))
			}
			out = append(out, t)
		}
		return out
	}}
}

// Fig12BurstAbsorption reproduces the burst-loss-rate sweep: burst sizes
// 300–800KB for α ∈ {1,2,4}, Occamy vs DT.
func Fig12BurstAbsorption() Figure {
	var rows []figRow
	for _, alpha := range []float64{1, 2, 4} {
		for size := int64(300_000); size <= 800_000; size += 100_000 {
			rows = append(rows, figRow{
				label: []string{experiments.F(alpha), experiments.F(float64(size) / 1000)},
				specs: []Spec{
					burstSpec(Policy{Kind: "occamy", Alpha: alpha}, size, 100e9),
					burstSpec(Policy{Kind: "dt", Alpha: alpha}, size, 100e9),
				},
			})
		}
	}
	return tableFigure("fig12", "burst loss rate vs burst size",
		[]string{"alpha", "burst_KB", "occamy_loss", "dt_loss"},
		rows, func(rs []*Result) []string {
			return []string{experiments.F(rs[0].burstLoss()), experiments.F(rs[1].burstLoss())}
		})
}

// burstGrid is the Fig 12 scenario under p at every burst size lo..hi.
func burstGrid(p Policy, lo, hi, step int64) []Spec {
	var specs []Spec
	for size := lo; size <= hi; size += step {
		specs = append(specs, burstSpec(p, size, 100e9))
	}
	return specs
}

// maxLossless reduces a burst grid's results to the largest burst
// absorbed without loss.
func maxLossless(results []*Result) int64 {
	best := int64(0)
	for _, r := range results {
		if r.Workloads[1].Drops == 0 {
			best = r.Spec.Workloads[1].Bytes
		}
	}
	return best
}

// MaxLosslessBurst searches the sweep grid lo..hi for the largest burst
// a policy absorbs without loss — the burst-absorption headline (§6.1's
// "57% more").
func MaxLosslessBurst(p Policy, lo, hi, step int64) int64 {
	return maxLossless(Figure{Specs: burstGrid(p, lo, hi, step)}.Results())
}

// alphaSweep explores the α design space: the Eq. 2 buffer reservation
// and the Eq. 4 fairness bound, then the largest burst Occamy and DT
// absorb without loss (100–900KB in the Fig 12 scenario) at α up to 2
// at quick scale and up to 8 otherwise.
func alphaSweep(s Scale) Figure {
	alphas := []float64{1, 2, 4, 8}
	if s == ScaleQuick {
		alphas = alphas[:2]
	}
	var rows []figRow
	for _, a := range alphas {
		rows = append(rows, figRow{label: []string{fmt.Sprint(a)}, specs: append(
			burstGrid(Policy{Kind: "occamy", Alpha: a}, 100_000, 900_000, 50_000),
			burstGrid(Policy{Kind: "dt", Alpha: a}, 100_000, 900_000, 50_000)...)})
	}
	measured := tableFigure("alpha-sweep", "measured maximum lossless burst (Fig 12 scenario, 1.2MB buffer)",
		[]string{"alpha", "occamy_KB", "dt_KB"}, rows, func(rs []*Result) []string {
			n := len(rs) / 2
			return []string{fmt.Sprint(maxLossless(rs[:n]) / 1000), fmt.Sprint(maxLossless(rs[n:]) / 1000)}
		})
	return Figure{Specs: measured.Specs, Tables: func(results []*Result) []*Table {
		eq2 := &Table{ID: "alpha-sweep/eq2", Title: "Eq.2 steady-state free-buffer reservation F/B = 1/(1+alpha*n), n=1",
			Columns: []string{"alpha", "reserved", "queue_occ_pct"}}
		for a := 0.25; a <= 16; a *= 2 {
			eq2.AddRow(fmt.Sprint(a), fmt.Sprintf("%.4f", bm.ReservedFraction(a, 1)),
				fmt.Sprintf("%.1f", float64(bm.SteadyStateQueueLen(a, 1, 1_000_000))/1e6*100))
		}
		eq4 := &Table{ID: "alpha-sweep/eq4", Title: "Eq.4 fairness bound: largest (R/V-1)*M - N that 1/alpha must cover",
			Columns: []string{"R/V", "bound", "any_alpha_fair"}}
		for _, rv := range []float64{1.0, 1.5, 2.0, 3.0, 4.0} {
			b := bm.FairExpulsionAlphaBound(rv, 1, 1, 1)
			eq4.AddRow(fmt.Sprintf("%.1f", rv), fmt.Sprintf("%.2f", b), fmt.Sprint(b <= 0))
		}
		return append([]*Table{eq2, eq4}, measured.Tables(results)...)
	}}
}
