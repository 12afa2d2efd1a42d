package experiments

import (
	"bytes"
	"testing"

	"occamy/internal/sim"
)

// RunGrid must preserve input order regardless of completion order.
func TestRunGridOrdering(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(8)
	points := make([]int, 100)
	for i := range points {
		points[i] = i
	}
	got := RunGrid(points, func(p int) int { return p * p })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// Fprint aligns every column to its widest cell and trims trailing
// blanks; F and Ms pick their precision by magnitude.
func TestTableFormat(t *testing.T) {
	tab := &Table{ID: "t", Title: "demo", Columns: []string{"name", "v"}}
	tab.AddRow("long-label", F(0))
	tab.AddRow("x", F(123.4))
	tab.AddRow("y", F(1.234))
	tab.AddRow("z", F(0.01234))
	tab.AddRow("d", Ms(1500*sim.Microsecond))
	var buf bytes.Buffer
	tab.Fprint(&buf)
	want := "== t: demo ==\n" +
		"name        v\n" +
		"long-label  0\n" +
		"x           123\n" +
		"y           1.23\n" +
		"z           0.0123\n" +
		"d           1.500\n"
	if got := buf.String(); got != want {
		t.Fatalf("table rendering drifted:\n--- want\n%s--- got\n%s", want, got)
	}
}
