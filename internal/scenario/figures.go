package scenario

import (
	"fmt"
	"strings"

	"occamy/internal/experiments"
	"occamy/internal/hw"
)

// Figures are specs
//
// Every table and figure of the paper's evaluation is a grid of Specs
// run through Run — the same path the CLI, the worker and the router
// serve — plus a layout of the Results into the figure's tables. The
// three families live in figures_raw.go (P4 raw-injection traces: Fig
// 3/11/12 and the α sweep), figures_dpdk.go (software switch: Fig
// 6/13–16, extras) and figures_fabric.go (leaf–spine fabric: Fig
// 7/17–23). Each is a catalog entry under its paper id (paperFigures),
// run by `occamy-scenario run <id> -scale quick|full|paper`. SCENARIOS.md
// ("Figures are specs") maps each figure to its specs and shows how to
// run a single point from a file or over HTTP.

// Figure is one paper figure as data: the specs it runs and the layout
// of their results as the figure's tables.
type Figure struct {
	Specs []Spec
	// Tables lays out results (one per spec, in Specs order).
	Tables func(results []*Result) []*Table
}

// paperFigures are the catalog's figure entries, which Get and Names
// serve beside the registered specs. The table is static data: nothing
// is built or allocated until an entry is run, at the scale asked for.
// (Registering them instead kept 19 more values live from init, and
// that alone lifted the sim-short benchmark workload's peak RSS from
// ~14 to 22–27 MB on a 2-core host.)
var paperFigures = []struct {
	id, title string
	at        func(Scale) Figure
}{
	{"table1", "Table 1: head-drop hardware cost, Maximum Finder, Fig 10 pipeline", table1},
	{"fig3", "Fig 3: DT healthy vs anomalous burst dynamics", func(Scale) Figure { return Fig3DTBehavior() }},
	{"fig6", "Fig 6: DT anomalies, incast vs competing traffic", func(s Scale) Figure { _, _, q := FigureScales(s); return Fig6Anomalies(q, nil) }},
	{"fig7", "Fig 7: buffer and memory-bandwidth utilization on drop", func(s Scale) Figure { return Fig7Utilization(fabricAt(s)) }},
	{"fig11", "Fig 11: queue length evolution, Occamy vs DT", func(Scale) Figure { return Fig11QueueEvolution() }},
	{"fig12", "Fig 12: burst loss rate vs burst size", func(Scale) Figure { return Fig12BurstAbsorption() }},
	{"fig13", "Fig 13: software switch QCT/FCT vs query size", func(s Scale) Figure { return Fig13SoftwareSwitch(dpdkAt(s)) }},
	{"fig14", "Fig 14: performance isolation, QCT vs background load", func(s Scale) Figure { return Fig14Isolation(dpdkAt(s)) }},
	{"fig15", "Fig 15: buffer choking, HP QCT with vs without LP background", func(s Scale) Figure { return Fig15BufferChoking(dpdkAt(s)) }},
	{"fig16", "Fig 16: impact of alpha on p99 QCT", func(s Scale) Figure { return Fig16AlphaImpact(dpdkAt(s)) }},
	{"fig17", "Fig 17: large-scale slowdowns vs query size", func(s Scale) Figure { return Fig17LargeScale(fabricAt(s)) }},
	{"fig18", "Fig 18: slowdowns vs all-to-all flow size", func(s Scale) Figure { return Fig18AllToAll(fabricAt(s)) }},
	{"fig19", "Fig 19: slowdowns vs all-reduce flow size", func(s Scale) Figure { return Fig19AllReduce(fabricAt(s)) }},
	{"fig20", "Fig 20: slowdowns vs query load", func(s Scale) Figure { return Fig20QueryLoad(fabricAt(s)) }},
	{"fig21", "Fig 21: round-robin vs longest-queue drop", func(s Scale) Figure { return Fig21RoundRobinDrop(fabricAt(s)) }},
	{"fig22", "Fig 22: slowdowns under 120% background load", func(s Scale) Figure { return Fig22HeavyLoad(fabricAt(s)) }},
	{"fig23", "Fig 23: slowdowns vs buffer size", func(s Scale) Figure { return Fig23BufferSize(fabricAt(s)) }},
	{"extras", "extension: all implemented policies on the Fig 13 scenario", func(s Scale) Figure { return ExtrasBakeoff(dpdkAt(s)) }},
	{"alpha-sweep", "alpha design space: Eq. 2, Eq. 4, measured lossless burst", alphaSweep},
}

func dpdkAt(s Scale) DPDKScale     { d, _, _ := FigureScales(s); return d }
func fabricAt(s Scale) FabricScale { _, f, _ := FigureScales(s); return f }

// figureEntry is the catalog entry of figure name, built on request.
func figureEntry(name string) (Scenario, bool) {
	for i := range paperFigures {
		if fig := &paperFigures[i]; fig.id == name {
			return Scenario{Spec: Spec{Name: fig.id, Title: fig.title},
				Tables: func(s Scale) []*Table { return fig.at(s).Run() }}, true
		}
	}
	return Scenario{}, false
}

// FigureScales sizes the figure grids at a scale: the software-switch
// sweeps, the fabric sweeps and Fig 6's query count. Quick takes
// seconds, full a few minutes, and paper is the paper's dimensions (its
// 128-host fabric runs take a long time).
func FigureScales(s Scale) (DPDKScale, FabricScale, int) {
	d := DPDKScale{Hosts: 6, Queries: 8, SizeFracs: []float64{0.4, 0.8, 1.2},
		Loads: []float64{0.2, 0.5}, Alphas: []float64{0.5, 2, 8}, Seed: 42}
	f := FabricScale{Spines: 2, Leaves: 2, HostsPerLeaf: 4, Queries: 8,
		SizeFracs: []float64{0.4, 0.8}, FlowSizes: []int64{64_000, 512_000},
		QueryLoads: []float64{0.1, 0.4}, BufferFactors: []float64{3.44, 9.6}, Seed: 7}
	if s == ScaleQuick {
		return d, f, 8
	}
	d.Hosts, d.Alphas = 8, []float64{0.5, 1, 2, 4, 8}
	f.SizeFracs = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	f.QueryLoads = []float64{0.1, 0.2, 0.4, 0.6, 0.8}
	if s == ScalePaper {
		d.Queries = 60
		d.SizeFracs = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4}
		d.Loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
		f.Spines, f.Leaves, f.HostsPerLeaf, f.Queries = 8, 8, 16, 100
		f.FlowSizes = []int64{16_000, 32_000, 64_000, 128_000, 256_000, 512_000, 1_000_000, 2_000_000}
		f.BufferFactors = []float64{3.44, 5.12, 6.5, 8.0, 9.6}
		return d, f, 60
	}
	d.Queries = 30
	d.SizeFracs = []float64{0.2, 0.6, 1.0, 1.4}
	d.Loads = []float64{0.1, 0.3, 0.5}
	f.Queries = 25
	f.FlowSizes = []int64{16_000, 64_000, 256_000, 1_000_000, 2_000_000}
	f.BufferFactors = []float64{3.44, 5.12, 8.0, 9.6}
	return d, f, 20
}

// table1 is Table 1 — the head-drop selector, arbiter and executor for
// a 64-queue bitmap of 20-bit lengths — then the Maximum Finder classic
// Pushout would need (Fig 4) and the Fig 10 dequeue pipeline, both for a
// 1GHz traffic manager, at every scale. It runs nothing.
func table1(Scale) Figure {
	const queues, bits, ghz = 64, 20, 1.0
	return Figure{Tables: func([]*Result) []*Table {
		cost := &Table{ID: "table1", Title: fmt.Sprintf("hardware cost (%d queues, %d-bit lengths)", queues, bits),
			Columns: []string{"module", "LUTs", "FFs", "timing_ns", "area_mm2", "power_mW"}}
		rows := hw.Table1(queues, bits)
		for _, c := range append(rows, hw.TotalCost(rows)) {
			cost.AddRow(c.Module, fmt.Sprint(c.LUTs), fmt.Sprint(c.FlipFlops),
				experiments.F(c.TimingNs), fmt.Sprintf("%.5f", c.AreaMM2), experiments.F(c.PowerMW))
		}
		mf := hw.NewMaxFinder(queues, bits)
		finder := &Table{ID: "table1/maxfinder", Title: "Maximum Finder classic Pushout needs (Fig 4), 1GHz",
			Columns: []string{"levels", "comparators", "gates", "delay_ns", "settles_in_cycle"}}
		finder.AddRow(fmt.Sprint(mf.Levels()), fmt.Sprint(mf.Comparators()), fmt.Sprint(mf.Gates()),
			fmt.Sprintf("%.2f", mf.DelayNs()), fmt.Sprint(mf.MeetsCycleTime(ghz)))
		pipe := &Table{ID: "table1/pipeline", Title: "Fig 10 dequeue pipeline, 1500B packet (8 cells), 1GHz",
			Columns: []string{"sublists", "dequeue_cycles", "expulsion_Mpps"}}
		for _, sub := range []int{1, 4} {
			cfg := hw.PipelineConfig{Sublists: sub}
			pipe.AddRow(fmt.Sprint(sub), fmt.Sprint(hw.DequeueCycles(cfg, 8)),
				fmt.Sprintf("%.0f", hw.ExpulsionRate(cfg, ghz, 8)/1e6))
		}
		return []*Table{cost, finder, pipe}
	}}
}

// Results runs every spec of the figure, fanned across the
// experiments.RunGrid worker pool; the results are in Specs order at
// any parallelism.
func (f Figure) Results() []*Result { return experiments.RunGrid(f.Specs, MustRun) }

// Run executes the figure and renders its tables.
func (f Figure) Run() []*Table { return f.Tables(f.Results()) }

// figRow is one table row of a figure: its leading label cells and the
// specs whose results fill the rest of the row.
type figRow struct {
	label []string
	specs []Spec
}

// tableFigure is the common figure shape: one table whose every row is
// its label cells followed by cells(results of that row's specs). The
// specs take the table's ID and title as their name and title.
func tableFigure(id, title string, columns []string, rows []figRow, cells func([]*Result) []string) Figure {
	var specs []Spec
	for _, row := range rows {
		specs = append(specs, row.specs...)
	}
	for i := range specs {
		specs[i].Name, specs[i].Title = id, title
	}
	return Figure{Specs: specs, Tables: func(results []*Result) []*Table {
		t := &Table{ID: id, Title: title, Columns: columns}
		for _, row := range rows {
			n := len(row.specs)
			t.AddRow(append(append([]string(nil), row.label...), cells(results[:n])...)...)
			results = results[n:]
		}
		return []*Table{t}
	}}
}

// standardComparison is the paper's §6.2 default line-up: Occamy α=8,
// ABM α=2, DT α=1, Pushout.
func standardComparison() []Policy {
	return []Policy{
		{Kind: "occamy", Alpha: 8},
		{Kind: "abm", Alpha: 2},
		{Kind: "dt", Alpha: 1},
		{Kind: "pushout"},
	}
}

// extendedComparison is the full policy zoo: the §6.2 line-up plus the
// §7 related-work baselines implemented in this repository (EDT, TDT,
// POT, QPO, Complete Sharing).
func extendedComparison() []Policy {
	return append(standardComparison(),
		Policy{Kind: "edt"}, Policy{Kind: "tdt"},
		Policy{Kind: "pot", Fraction: 0.5}, Policy{Kind: "qpo"}, Policy{Kind: "cs"})
}

// paperName labels a policy the way the paper's figures do: "Occamy",
// "Occamy-LD", "DT(a=1)", "ABM(a=2)", "Pushout", "EDT", ….
func paperName(p Policy) string {
	switch p.Kind {
	case "", "occamy":
		return "Occamy"
	case "occamy-ld":
		return "Occamy-LD"
	case "pushout":
		return "Pushout"
	case "dt", "abm":
		return fmt.Sprintf("%s(a=%g)", strings.ToUpper(p.Kind), p.alpha())
	}
	return strings.ToUpper(p.Kind)
}
