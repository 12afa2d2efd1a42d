// occamy-sim regenerates any table or figure of the paper.
//
// Usage:
//
//	occamy-sim -fig fig12                 # one experiment, quick scale
//	occamy-sim -fig all -scale medium     # everything, medium scale
//	occamy-sim -fig fig17 -scale paper    # §6.4 at full 128-host scale (slow)
//	occamy-sim -fig fig23 -j 8            # cap the sweep at 8 concurrent sims
//
// Scales: quick (test-sized, seconds), medium (a few minutes), paper
// (the paper's dimensions; the leaf-spine runs take a long time).
//
// Sweep points within a figure run concurrently (-j, default
// GOMAXPROCS); tables are byte-identical at any -j.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"occamy/internal/experiments"
	"occamy/internal/hw"
	"occamy/internal/scenario"
)

func scales(name string) (scenario.DPDKScale, scenario.FabricScale, int) {
	switch name {
	case "quick":
		return scenario.QuickDPDK(), scenario.QuickFabric(), 8
	case "medium":
		d := scenario.QuickDPDK()
		d.Hosts, d.Queries = 8, 30
		d.SizeFracs = []float64{0.2, 0.6, 1.0, 1.4}
		d.Loads = []float64{0.1, 0.3, 0.5}
		d.Alphas = []float64{0.5, 1, 2, 4, 8}
		f := scenario.QuickFabric()
		f.Queries = 25
		f.SizeFracs = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
		f.FlowSizes = []int64{16_000, 64_000, 256_000, 1_000_000, 2_000_000}
		f.QueryLoads = []float64{0.1, 0.2, 0.4, 0.6, 0.8}
		f.BufferFactors = []float64{3.44, 5.12, 8.0, 9.6}
		return d, f, 20
	case "paper":
		return scenario.PaperDPDK(), scenario.PaperFabric(), 60
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (quick|medium|paper)\n", name)
		os.Exit(2)
	}
	panic("unreachable")
}

func main() {
	fig := flag.String("fig", "all", "which experiment: table1, fig3, fig6, fig7, fig11, fig12, fig13..fig23, extras, or all")
	scale := flag.String("scale", "quick", "quick | medium | paper")
	jobs := flag.Int("j", 0, "concurrent simulations per sweep (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	experiments.SetParallelism(*jobs)
	d, f, queries := scales(*scale)
	figures := map[string]func() scenario.Figure{
		// Table 1 is the analytic hardware-cost model: a figure with no runs.
		"table1": func() scenario.Figure {
			return scenario.Figure{Tables: func([]*scenario.Result) []*scenario.Table {
				return []*scenario.Table{hw.Table1HardwareCost(64, 20)}
			}}
		},
		"fig3":   scenario.Fig3DTBehavior,
		"fig6":   func() scenario.Figure { return scenario.Fig6Anomalies(queries, nil) },
		"fig7":   func() scenario.Figure { return scenario.Fig7Utilization(f) },
		"fig11":  scenario.Fig11QueueEvolution,
		"fig12":  scenario.Fig12BurstAbsorption,
		"fig13":  func() scenario.Figure { return scenario.Fig13SoftwareSwitch(d) },
		"fig14":  func() scenario.Figure { return scenario.Fig14Isolation(d) },
		"fig15":  func() scenario.Figure { return scenario.Fig15BufferChoking(d) },
		"fig16":  func() scenario.Figure { return scenario.Fig16AlphaImpact(d) },
		"fig17":  func() scenario.Figure { return scenario.Fig17LargeScale(f) },
		"fig18":  func() scenario.Figure { return scenario.Fig18AllToAll(f) },
		"fig19":  func() scenario.Figure { return scenario.Fig19AllReduce(f) },
		"fig20":  func() scenario.Figure { return scenario.Fig20QueryLoad(f) },
		"fig21":  func() scenario.Figure { return scenario.Fig21RoundRobinDrop(f) },
		"fig22":  func() scenario.Figure { return scenario.Fig22HeavyLoad(f) },
		"fig23":  func() scenario.Figure { return scenario.Fig23BufferSize(f) },
		"extras": func() scenario.Figure { return scenario.ExtrasBakeoff(d) },
	}

	var names []string
	if *fig == "all" {
		for k := range figures {
			names = append(names, k)
		}
		sort.Strings(names)
	} else if _, ok := figures[*fig]; ok {
		names = []string{*fig}
	} else {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *fig)
		os.Exit(2)
	}

	for _, n := range names {
		start := time.Now()
		figure := figures[n]()
		results := figure.Results()
		for _, tab := range figure.Tables(results) {
			tab.Fprint(os.Stdout)
			fmt.Println()
		}
		if n == "fig11" {
			// The queue-evolution figure is a plot; render it as one.
			for _, r := range results {
				plot, err := r.QueueTracePlot(72, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("%s (burst drops %d, expelled %d)\n%s\n",
					r.Spec.Policy.Label(), r.Workloads[1].Drops, r.Total.DropsExpelled, plot)
			}
		}
		fmt.Printf("(%s took %v)\n\n", n, time.Since(start).Round(time.Millisecond))
	}
}
