// Package trace renders time-series (queue lengths, thresholds) as
// compact ASCII sparklines and multi-series plots, so the figure
// harnesses can show the *shape* of Fig 3/11 style dynamics directly in
// terminal output.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// sparkGlyphs are the eight block heights of a sparkline cell.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as one line of block glyphs, downsampling to
// at most width cells (0 = no limit). The scale is min..max of the data.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	v := Downsample(values, width)
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	var b strings.Builder
	for _, x := range v {
		idx := 0
		if hi > lo {
			idx = int((x - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkGlyphs) {
			idx = len(sparkGlyphs) - 1
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	return b.String()
}

// Downsample reduces values to at most width points by bucket-averaging
// (width <= 0 returns the input unchanged).
func Downsample(values []float64, width int) []float64 {
	if width <= 0 || len(values) <= width {
		return values
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, x := range values[lo:hi] {
			sum += x
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// Series is one named curve for a Plot.
type Series struct {
	Name   string
	Values []float64
}

// WriteCSV writes aligned time series as CSV: a header line
// "time_s,<name>,<name>,..." then one row per stride-th sample (stride
// <= 1 writes them all), starting with the first. Every series must
// have exactly len(times) values.
func WriteCSV(w io.Writer, times []float64, series []Series, stride int) error {
	cols := make([]string, 0, len(series)+1)
	cols = append(cols, "time_s")
	for _, s := range series {
		if len(s.Values) != len(times) {
			return fmt.Errorf("trace: series %q has %d values for %d timestamps", s.Name, len(s.Values), len(times))
		}
		cols = append(cols, strings.ReplaceAll(s.Name, ",", "_"))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	row := make([]string, len(series)+1)
	for i := 0; i < len(times); i += max(stride, 1) {
		row[0] = fmt.Sprintf("%.9f", times[i])
		for j, s := range series {
			row[j+1] = fmt.Sprintf("%g", s.Values[i])
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Plot renders several series as labeled sparklines on a shared scale,
// one per line, with min/max annotations:
//
//	q1_long   ▁▁▂▃▅▆▇███▇▆▅  [0 .. 960000]
func Plot(series []Series, width int) string {
	// Shared scale across all series so curves are comparable.
	lo, hi := 0.0, 0.0
	first := true
	for _, s := range series {
		for _, x := range s.Values {
			if first {
				lo, hi, first = x, x, false
				continue
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	nameW := 0
	for _, s := range series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	var b strings.Builder
	for _, s := range series {
		v := Downsample(s.Values, width)
		fmt.Fprintf(&b, "%-*s  ", nameW, s.Name)
		for _, x := range v {
			idx := 0
			if hi > lo {
				idx = int((x - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkGlyphs) {
				idx = len(sparkGlyphs) - 1
			}
			b.WriteRune(sparkGlyphs[idx])
		}
		fmt.Fprintf(&b, "  [%.3g .. %.3g]\n", lo, hi)
	}
	return b.String()
}
