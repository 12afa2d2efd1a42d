package trace

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestSparklineShape(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("len = %d runes", utf8.RuneCountInString(s))
	}
	// Monotone input: first glyph lowest, last glyph highest.
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("sparkline = %q", s)
	}
}

func TestSparklineFlat(t *testing.T) {
	s := Sparkline([]float64{5, 5, 5}, 0)
	if s != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", s)
	}
}

func TestSparklineEmpty(t *testing.T) {
	if Sparkline(nil, 10) != "" {
		t.Fatal("empty input produced output")
	}
}

func TestDownsample(t *testing.T) {
	in := make([]float64, 100)
	for i := range in {
		in[i] = float64(i)
	}
	out := Downsample(in, 10)
	if len(out) != 10 {
		t.Fatalf("len = %d", len(out))
	}
	// Bucket means must be increasing for increasing input.
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatalf("not monotone: %v", out)
		}
	}
	// No-op cases.
	if got := Downsample(in, 0); len(got) != 100 {
		t.Fatal("width 0 should not downsample")
	}
	if got := Downsample(in[:5], 10); len(got) != 5 {
		t.Fatal("short input should not be padded")
	}
}

// Property: downsampled output length is min(len, width) for width > 0,
// and every output value is within the input's range.
func TestDownsampleBounds(t *testing.T) {
	f := func(raw []uint8, w uint8) bool {
		if len(raw) == 0 || w == 0 {
			return true
		}
		in := make([]float64, len(raw))
		lo, hi := float64(raw[0]), float64(raw[0])
		for i, x := range raw {
			in[i] = float64(x)
			if in[i] < lo {
				lo = in[i]
			}
			if in[i] > hi {
				hi = in[i]
			}
		}
		out := Downsample(in, int(w))
		want := len(in)
		if int(w) < want {
			want = int(w)
		}
		if len(out) != want {
			return false
		}
		for _, x := range out {
			if x < lo-1e-9 || x > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlotSharedScale(t *testing.T) {
	out := Plot([]Series{
		{Name: "low", Values: []int32{0, 0, 0}},
		{Name: "high", Values: []int32{10, 10, 10}},
	}, 0)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Shared scale: the low series renders at the bottom glyph, the
	// high series at the top glyph.
	if !strings.Contains(lines[0], "▁▁▁") {
		t.Fatalf("low line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "███") {
		t.Fatalf("high line = %q", lines[1])
	}
	if !strings.Contains(lines[0], "[0 .. 10]") {
		t.Fatalf("missing scale annotation: %q", lines[0])
	}
}

func TestWriteCSV(t *testing.T) {
	var buf strings.Builder
	err := WriteCSV(&buf, []float64{0, 0.001, 0.002}, []Series{
		{Name: "sw0", Values: []int32{0, 500, 1000}},
		{Name: "has,comma", Values: []int32{1, 2, 3}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header + 3 rows", len(lines))
	}
	if lines[0] != "time_s,sw0,has_comma" {
		t.Fatalf("header = %q (commas in names must be sanitized)", lines[0])
	}
	if !strings.HasPrefix(lines[2], "0.001000000,500,2") {
		t.Fatalf("row 2 = %q", lines[2])
	}
	// Stride 2 keeps the first and third samples, whole.
	var strided strings.Builder
	if err := WriteCSV(&strided, []float64{0, 0.001, 0.002}, []Series{{Name: "sw0", Values: []int32{0, 500, 1000}}}, 2); err != nil {
		t.Fatal(err)
	}
	if got := strided.String(); got != "time_s,sw0\n0.000000000,0\n0.002000000,1000\n" {
		t.Fatalf("stride 2 = %q", got)
	}
	// Ragged input is an error, not silent misalignment.
	if err := WriteCSV(&buf, []float64{0, 1}, []Series{{Name: "x", Values: []int32{1}}}, 1); err == nil {
		t.Fatal("ragged series accepted")
	}
}
