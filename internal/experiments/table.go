// Package experiments is the output-and-fan-out leaf under every
// simulation harness: Table (labeled columns, formatted rows, aligned
// plain-text rendering) with the F/Ms cell formatters, and RunGrid, the
// deterministic worker pool that sweeps of independent simulations fan
// across (see grid.go). It imports nothing from this repository but
// internal/sim.
//
// The per-figure harnesses that gave the package its name now live in
// internal/scenario (figures_*.go) as Spec builders over scenario.Run;
// SCENARIOS.md ("Figures are specs") maps each figure to its specs. The
// package keeps its import path because benchmarks/, a module of its
// own that pins the APIs it drives, calls experiments.SetParallelism;
// folding it into internal/scenario waits for a change that may edit
// benchmarks/ too (ROADMAP, "Finish one harness").
package experiments

import (
	"fmt"
	"io"
	"strings"

	"occamy/internal/sim"
)

// Table is one experiment's output: labeled columns and formatted rows.
type Table struct {
	ID      string // e.g. "fig12"
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Ms formats a duration in milliseconds for table cells.
func Ms(d sim.Duration) string { return fmt.Sprintf("%.3f", d.Millis()) }
