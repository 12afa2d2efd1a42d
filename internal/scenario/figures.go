package scenario

import (
	"fmt"
	"strings"

	"occamy/internal/experiments"
)

// Figures are specs
//
// Every table and figure of the paper's evaluation is a grid of Specs
// run through Run — the same path the CLI, the worker and the router
// serve — plus a layout of the Results into the figure's tables. The
// three families live in figures_raw.go (P4 raw-injection traces: Fig
// 3/11/12), figures_dpdk.go (software switch: Fig 6/13–16, extras) and
// figures_fabric.go (leaf–spine fabric: Fig 7/17–23). SCENARIOS.md
// ("Figures are specs") maps each figure to its specs and shows how to
// run a single point from a file or over HTTP.

// Figure is one paper figure as data: the specs it runs and the layout
// of their results as the figure's tables.
type Figure struct {
	Specs []Spec
	// Tables lays out results (one per spec, in Specs order).
	Tables func(results []*Result) []*Table
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
