// Package trace renders time-series (queue lengths, thresholds) as
// compact ASCII sparklines and multi-series plots, so the figure
// harnesses can show the *shape* of Fig 3/11 style dynamics directly in
// terminal output.
package trace

import (
	"fmt"
	"io"
	"math"
	"slices"
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
	lo, hi := slices.Min(v), slices.Max(v)
	var b strings.Builder
	for _, x := range v {
		b.WriteRune(glyph(x, lo, hi))
	}
	return b.String()
}

// glyph is the block for x on the scale lo..hi, the lowest on a flat one.
func glyph(x, lo, hi float64) rune {
	idx := 0
	if hi > lo {
		idx = int((x - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
	}
	return sparkGlyphs[min(max(idx, 0), len(sparkGlyphs)-1)]
}

// Downsample reduces values to at most width points by bucket-averaging
// (width <= 0 keeps every point), as float64s.
func Downsample[T int32 | float64](values []T, width int) []float64 {
	if width <= 0 || len(values) < width {
		width = len(values)
	}
	out := make([]float64, width)
	for i := range out {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		sum := 0.0
		for _, x := range values[lo:hi] {
			sum += float64(x)
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// Series is one named curve for a Plot: a byte or mark count per
// sample.
type Series struct {
	Name   string
	Values []int32
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
			row[j+1] = fmt.Sprintf("%g", float64(s.Values[i]))
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
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, s := range series {
		for _, v := range s.Values {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	if lo > hi { // no values at all
		lo, hi = 0, 0
	}
	nameW := 0
	for _, s := range series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	var b strings.Builder
	for _, s := range series {
		fmt.Fprintf(&b, "%-*s  ", nameW, s.Name)
		for _, x := range Downsample(s.Values, width) {
			b.WriteRune(glyph(x, float64(lo), float64(hi)))
		}
		fmt.Fprintf(&b, "  [%.3g .. %.3g]\n", float64(lo), float64(hi))
	}
	return b.String()
}
