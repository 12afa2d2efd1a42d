package scenario

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"occamy/internal/sim"
)

// The split encoder's contract. The head is the reflective encoder's:
// Encode produces, byte for byte, json.Marshal of the traceless document
// with the trace section spliced in before its closing brace, plus the
// canonical newline. The trace's oracle is the round trip: decoding the
// section expands, count for count, to the series written, and the
// decoded document encodes to the same bytes. Encode fails exactly when
// encodeFault says it must, and json.Marshal(doc) agrees with it.
func checkEncode(t *testing.T, doc *ResultDoc) []byte {
	t.Helper()
	got, gotErr := doc.Encode()
	if whole, err := json.Marshal(doc); (err != nil) != (gotErr != nil) || err == nil && string(whole)+"\n" != string(got) {
		t.Fatalf("json.Marshal(doc) disagrees with Encode: %v / %v", err, gotErr)
	}
	var te *TraceError
	switch want := encodeFault(doc); {
	case want == "" && gotErr != nil:
		t.Fatalf("Encode failed: %v", gotErr)
	case want != "":
		if !errors.As(gotErr, &te) || te.Path != want {
			t.Fatalf("Encode error %v, want a TraceError at %s", gotErr, want)
		}
		return nil
	}
	bare := *doc
	bare.Trace = nil
	wantHead, err := json.Marshal(&bare)
	if err != nil {
		t.Fatal(err)
	}
	head, section := SplitTrace(got)
	if doc.Trace == nil {
		head, wantHead = got, append(wantHead, '\n')
	} else {
		head = append(slices.Clip(head), "}"...)
	}
	if string(head) != string(wantHead) || (doc.Trace != nil) != (section != nil) {
		t.Fatalf("Encode's head differs from json.Marshal at byte %d:\n got %s\nwant %s",
			firstDiff(head, wantHead), clip(head), clip(wantHead))
	}
	if cap(got) != len(got) {
		t.Fatalf("Encode returned cap %d for len %d: retained result bytes must be exact", cap(got), len(got))
	}
	if doc.Trace != nil {
		back, err := DecodeTrace(got)
		if err != nil {
			t.Fatalf("DecodeTrace of Encode's bytes: %v", err)
		}
		checkSameTrace(t, back, doc.Trace)
		again := *doc
		again.Trace = back
		if data, err := again.Encode(); err != nil || string(data) != string(got) {
			t.Fatalf("the decoded trace re-encodes to other bytes (err %v) at byte %d", err, firstDiff(data, got))
		}
	}
	return got
}

// encodeFault is where Encode must fail on doc, or "": the path of its
// first shape fault, in the order the section lists fields — a sample
// count out of range, a name that is not UTF-8 ("trace"), a series of
// another length. Every int32 is a value the section can carry.
func encodeFault(doc *ResultDoc) string {
	td := doc.Trace
	if td == nil {
		return ""
	}
	if td.Samples < 1 || td.Samples > maxTraceSamples {
		return "trace.samples"
	}
	var paths []string
	var series [][]int32
	add := func(path string, vs []int32) { paths, series = append(paths, path), append(series, vs) }
	named := func(name string) {
		if !utf8.ValidString(name) {
			add("trace", nil)
		}
	}
	for i, s := range td.Switches {
		named(s.Name)
		add(fmt.Sprintf("trace.switches[%d].values", i), s.Values)
	}
	for i, q := range td.Queues {
		named(q.Name)
		add(fmt.Sprintf("trace.queues[%d].occupancy", i), q.Occupancy)
		add(fmt.Sprintf("trace.queues[%d].threshold", i), q.Threshold)
		add(fmt.Sprintf("trace.queues[%d].ecn", i), q.ECN)
	}
	for k, vs := range series {
		if len(vs) != td.Samples {
			return paths[k]
		}
	}
	return ""
}

// checkSameTrace fails unless got carries want's names and series. A nil
// list reads back empty.
func checkSameTrace(t *testing.T, got, want *TraceDoc) {
	t.Helper()
	same := slices.Equal[[]int32]
	ok := got.SampleEvery == want.SampleEvery && got.Samples == want.Samples &&
		len(got.Switches) == len(want.Switches) && len(got.Queues) == len(want.Queues)
	for i := 0; ok && i < len(want.Switches); i++ {
		ok = got.Switches[i].Name == want.Switches[i].Name && same(got.Switches[i].Values, want.Switches[i].Values)
	}
	for i := 0; ok && i < len(want.Queues); i++ {
		g, w := &got.Queues[i], &want.Queues[i]
		ok = g.Name == w.Name && same(g.Occupancy, w.Occupancy) && same(g.Threshold, w.Threshold) && same(g.ECN, w.ECN)
	}
	if !ok {
		t.Fatalf("the trace decoded as\n%+v\nfrom an encoding of\n%+v", got, want)
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func clip(b []byte) string {
	if len(b) > 400 {
		return string(b[:400]) + "…"
	}
	return string(b)
}

// Every catalog entry, with and without its trace: the bytes a served
// job, a cached result and a CLI -json dump carry hold the reflective
// encoder's head and a trace that round-trips, and they decode back to a
// document that encodes to them.
func TestEncodeMatchesReflectCatalog(t *testing.T) {
	t.Parallel()
	eachEntry(t, func(t *testing.T, _ string, run *corpusRun) {
		res := run.res
		for _, withTrace := range []bool{true, false} {
			doc, err := res.Doc(withTrace)
			if err != nil {
				t.Fatal(err)
			}
			if withTrace != (doc.Trace != nil) {
				t.Fatalf("Doc(%v) has trace: %v", withTrace, doc.Trace != nil)
			}
			data := checkEncode(t, doc)
			back, err := DecodeResultDoc(data)
			if err != nil {
				t.Fatalf("withTrace=%v: Encode output does not decode: %v", withTrace, err)
			}
			again, err := back.Encode()
			if err != nil || string(again) != string(data) {
				t.Fatalf("withTrace=%v: decode/encode round trip drifted (err %v)", withTrace, err)
			}
		}
	})
}

// Sweep tables are cached and relayed like run documents, so they get
// the same exact-capacity bytes.
func TestTableDocEncodeExact(t *testing.T) {
	t.Parallel()
	d := TableDoc{ID: "t", Title: "a <b> & c", Columns: []string{"x"}, Rows: [][]string{{"1"}, {"2"}}}
	got, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(&d)
	if string(got) != string(want)+"\n" {
		t.Errorf("TableDoc.Encode = %s, want %s plus newline", got, want)
	}
	if cap(got) != len(got) {
		t.Errorf("TableDoc.Encode returned cap %d for len %d", cap(got), len(got))
	}
}

// Both strict decoders accept exactly one JSON value: the canonical
// trailing newline is legal, anything else after the value — including
// the stray closer dec.More() is blind to, which is what a mis-spliced
// brace in the encoder would look like — is an error.
func TestTrailingDataRejected(t *testing.T) {
	t.Parallel()
	spec := `{"name":"x","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},` +
		`"workloads":[{"kind":"background","load":0.5}]}`
	doc := strings.TrimSuffix(string(corpus(t, "quickstart", "").data), "\n")
	for _, c := range []struct {
		tail string
		ok   bool
	}{
		{"", true}, {"\n", true}, {" \n\t", true},
		{"}", false}, {"]", false}, {" }\n", false}, {"{}", false}, {"x", false},
		{"\n}", false}, {",", false}, {"null", false},
	} {
		if _, err := ParseSpec([]byte(spec + c.tail)); (err == nil) != c.ok {
			t.Errorf("ParseSpec with tail %q: err = %v, want ok=%v", c.tail, err, c.ok)
		}
		if _, err := DecodeResultDoc([]byte(doc + c.tail)); (err == nil) != c.ok {
			t.Errorf("DecodeResultDoc with tail %q: err = %v, want ok=%v", c.tail, err, c.ok)
		}
	}
}

// fuzzSrc deals a fuzz input out as the parts of a TraceDoc. made holds
// every series it dealt, for later ones to alias, and zero is the one
// zero series its aliases share, as a recorder's idle queues do.
type fuzzSrc struct {
	data []byte
	made [][]int32
	zero [5]int32
}

func (s *fuzzSrc) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *fuzzSrc) bits() uint64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = s.byte()
	}
	return binary.LittleEndian.Uint64(raw[:])
}

// The values at the int32 bounds and where a count gains a digit.
var fuzzInts = []int32{
	0, 9, 1, -1, 1500, 1 << 20, 10, 99, 100, -9, -10, 999, 1000, 9999, 10_000, 99_999, 100_000,
	999_999, 1_000_000, 9_999_999, 10_000_000, 99_999_999, 100_000_000, 999_999_999, 1_000_000_000,
	-999_999_999, -1_000_000_000, 1<<31 - 2, math.MaxInt32, math.MinInt32, math.MinInt32 + 1, 1 << 30,
}

// fuzzRepeat and above, as a value's first byte, repeat the previous
// value: a run, as most of a recorded trace is.
const fuzzRepeat = 224

func (s *fuzzSrc) int(prev int32) int32 {
	switch k := int(s.byte()); {
	case k < len(fuzzInts):
		return fuzzInts[k]
	case k < 160:
		return int32(int(s.byte())<<8 | int(s.byte())) // a byte count, the common case
	case k < fuzzRepeat:
		return int32(s.bits())
	default:
		return prev
	}
}

// fuzzAlias and above, as a series' first byte, deal a series that
// shares its backing array with another: one dealt before, whole or
// halved, or the zero series. fuzzAlias+3 deals a copy of one dealt
// before instead: equal contents at another address. Below it, the
// first byte's residue mod 8 deals nil at 7, a series of some other
// length at 6, and n values otherwise.
const fuzzAlias = 240

func (s *fuzzSrc) ints(n int) []int32 {
	k := s.byte()
	if k >= fuzzAlias {
		m := int(s.byte())
		if len(s.made) == 0 || k%4 == 0 {
			return s.zero[:n]
		}
		prior := s.made[m%len(s.made)]
		switch k % 4 {
		case 1:
			return prior
		case 2:
			return prior[:len(prior)/2]
		}
		return slices.Clone(prior)
	}
	switch k % 8 {
	case 7:
		return nil
	case 6:
		n = int(s.byte() % 6)
	}
	out := make([]int32, n)
	prev := int32(0)
	for i := range out {
		out[i] = s.int(prev)
		prev = out[i]
	}
	s.made = append(s.made, out)
	return out
}

var fuzzNames = []string{
	"", "sw0", "leaf1:p3q0", `a"b`, `back\slash`, "<tag>&amp;", "<", ">", "&", "tab\there", "nul\x00", "del\x7f",
	"µs", "line\u2028sep\u2029", "bad\xffutf8", "\xc3", "日本", "q\r\n",
	// What SplitTrace searches for and cuts at, inside a name.
	traceKey + traceOpen, `{"a":[1,{}]}`, "}}\n",
}

func (s *fuzzSrc) name() string {
	k := int(s.byte())
	if k < len(fuzzNames) {
		return fuzzNames[k]
	}
	raw := make([]byte, k%5)
	for i := range raw {
		raw[i] = s.byte()
	}
	return string(raw)
}

// trace deals a sample period, a count of 0 to 5 samples, and up to two
// switches and two queues, each a nil list at a count of three.
func (s *fuzzSrc) trace() *TraceDoc {
	td := &TraceDoc{SampleEvery: sim.Duration(s.bits()), Samples: int(s.byte() % 6)}
	if n := int(s.byte() % 4); n < 3 {
		td.Switches = make([]SeriesDoc, n)
		for i := range td.Switches {
			td.Switches[i] = SeriesDoc{Name: s.name(), Values: s.ints(td.Samples)}
		}
	}
	if n := int(s.byte() % 4); n < 3 {
		td.Queues = make([]QueueSeriesDoc, n)
		for i := range td.Queues {
			td.Queues[i] = QueueSeriesDoc{Name: s.name(), Occupancy: s.ints(td.Samples), Threshold: s.ints(td.Samples), ECN: s.ints(td.Samples)}
		}
	}
	return td
}

// FuzzTraceEncode holds the encoder to checkEncode over trace sections
// no run would produce: negative counts, the int32 bounds, runs of one
// value, series of the wrong length or nil, nil and empty lists, shared
// and copied series, and names that need every kind of escaping or are
// not UTF-8. A value that is not an int32 count cannot reach the writer;
// TestTraceDecodeRefusesDamage holds the decoder to refusing one.
func FuzzTraceEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	// One seed per special count and per special name: a three-sample,
	// one-switch, one-queue document carrying that name three times and
	// that value in the values and occupancy series, over each shape of
	// ecn.
	for k := 0; k < len(fuzzInts) || k < len(fuzzNames); k++ {
		name, val := byte(k%len(fuzzNames)), byte(k%len(fuzzInts))
		seed := []byte{name}                           // document name
		seed = append(seed, 0xe8, 3, 0, 0, 0, 0, 0, 0) // sample_every 1µs
		seed = append(seed, 3)                         // three samples
		// One switch: the value, 8 raw bytes, a repeat. One queue: occupancy
		// the value twice and 1500, threshold 1, 1, 1.
		seed = append(seed, 1, name, 0, val, 200, 1, 2, 3, 4, 5, 6, 7, 8, fuzzRepeat)
		seed = append(seed, 1, name, 0, val, fuzzRepeat, 4, 0, 2, 2, 2)
		// ecn: three values, nil, one value (the last two are faults).
		switch k % 3 {
		case 0:
			seed = append(seed, 0, val, val, val)
		case 1:
			seed = append(seed, 7)
		case 2:
			seed = append(seed, 6, 1, val)
		}
		f.Add(seed)
	}
	// Side by side in one series, then repeated: the two bounds as
	// neighbours, and repeats of each that make one run.
	at := func(v int32) byte {
		if k := slices.Index(fuzzInts, v); k >= 0 {
			return byte(k)
		}
		panic("not a fuzzInts value")
	}
	for _, pair := range [][2]int32{{math.MinInt32, math.MaxInt32}, {math.MaxInt32, math.MinInt32}, {math.MaxInt32, math.MaxInt32}, {-1, -1}} {
		f.Add([]byte{
			1, 0xe8, 3, 0, 0, 0, 0, 0, 0, // name sw0, sample_every 1µs
			3,                                             // three samples
			1, 1, 0, at(pair[0]), at(pair[1]), fuzzRepeat, // one switch: the pair, then a repeat
			3, // no queues
		})
	}
	// Series that share backing arrays, as a recorder's do: a threshold
	// aliasing another series, one zero series in several fields, and an
	// equal copy at another address — beside a series of the same length
	// and other values. The second seed adds a halved series: a fault.
	shared := []byte{
		// Name sw0, sample_every 1µs, three samples.
		1, 0xe8, 3, 0, 0, 0, 0, 0, 0, 3,
		// One switch, whose values are 258, 2^20, 2^20 (dealt series 0).
		1, 1, 0, 40, 1, 2, 5, fuzzRepeat,
		// Two queues. The first: occupancy 7, 10, 1 (dealt series 1),
		// threshold series 0 again, ecn the zero series.
		2, 2, 0, 41, 0, 7, 6, 2, fuzzAlias + 1, 0, fuzzAlias, 3,
		// The second: occupancy the zero series, threshold a copy of
		// series 1, ecn series 0.
		3, fuzzAlias, 3, fuzzAlias + 3, 1, fuzzAlias + 1, 0,
	}
	f.Add(shared)
	f.Add(append(shared[:len(shared)-2:len(shared)-2], fuzzAlias+2, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSrc{data: data}
		doc := &ResultDoc{Schema: ResultSchemaVersion, Name: src.name(), Trace: src.trace()}
		checkEncode(t, doc)
	})
}

// BenchmarkResultEncode is the per-job encode cost of a short run: the
// quickstart document with its trace, as sim-short and a served job pay.
func BenchmarkResultEncode(b *testing.B) {
	sc, _ := Get("quickstart")
	res, err := Run(sc.SpecAt(ScaleQuick))
	if err != nil {
		b.Fatal(err)
	}
	doc, err := res.Doc(true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := doc.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

// okSection is a well-formed trace section: three samples, a switch and
// two queues, and the zero series shared by five fields.
const okSection = `{"sample_every":"1µs","samples":3,"switches":[{"name":"sw0","values":0}],` +
	`"queues":[{"name":"sw0:p0q0","occupancy":0,"threshold":1,"ecn":1},{"name":"sw0:p1q0","occupancy":1,"threshold":1,"ecn":1}],` +
	`"series":[[5,1,7,2],[0,3]]}`

// A damaged trace section is refused with a *TraceError that names the
// field at fault, before anything is expanded, and never with a panic.
func TestTraceDecodeRefusesDamage(t *testing.T) {
	t.Parallel()
	var ok TraceDoc
	if err := ok.UnmarshalJSON([]byte(okSection)); err != nil {
		t.Fatalf("the well-formed section was refused: %v", err)
	}
	for _, c := range []struct{ old, new, path, why string }{
		// A run array pairs values with run lengths, and the runs cover
		// the samples exactly.
		{`[5,1,7,2]`, `[5,1,7]`, "trace.series[0]", "odd count"},
		{`[0,3]`, `[0,0,0,3]`, "trace.series[1]", "run length 0 is not"},
		{`[0,3]`, `[0,-1,0,4]`, "trace.series[1]", "run length -1 is not"},
		{`[0,3]`, `[0,1.5,0,1.5]`, "trace.series[1]", "run length 1.5 is not"},
		{`[5,1,7,2]`, `[5,1,7,1]`, "trace.series[0]", "runs leave 1 samples uncovered"},
		{`[5,1,7,2]`, `[5,1,7,3]`, "trace.series[0]", "run length 3 is not a whole number from 1 to the 2 samples left"},
		{`[5,1,7,2]`, `[]`, "trace.series[0]", "runs leave 3 samples uncovered"},
		// A series field numbers a series of the table.
		{`"threshold":1,"ecn":1}]`, `"threshold":2,"ecn":1}]`, "trace.queues[1].threshold", "series 2 is not in the 2-series table"},
		{`"values":0`, `"values":-1`, "trace.switches[0].values", "series -1"},
		{`"ecn":1}]`, `"ecn":9}]`, "trace.queues[1].ecn", "series 9"},
		// The sample count is bounded, and so is the dense size.
		{`"samples":3`, `"samples":0`, "trace.samples", "outside"},
		{`"samples":3`, `"samples":1048577`, "trace.samples", "outside"},
		{`"samples":3`, `"samples":1048576`, "trace.series[0]", "uncovered"},
		{okSection, strings.NewReplacer(`"samples":3`, `"samples":1048576`, `[[5,1,7,2],[0,3]]`, "["+strings.Repeat(`[0,1048576],`, 16)+`[0,1048576]]`).Replace(okSection),
			"trace.series", "17 series of 1048576 samples exceed 16777216 values"},
		// Schema 1's times, and the JSON types.
		{`"samples":3`, `"times":["0s","1µs","2µs"],"samples":3`, "trace", `unknown field "times"`},
		{`"values":0`, `"values":0.5`, "trace", "cannot unmarshal"},
		// One spelling: whatever does not re-encode to its own bytes.
		{`[0,3]`, `[0,1,0,2]`, "trace", "re-encoding differs"},
		{`"samples":3,`, `"samples": 3,`, "trace", "re-encoding differs at byte 33"},
		{`[[5,1,7,2],[0,3]]`, `[[5,1,7,2],[0,3],[1,3]]`, "trace", "re-encoding differs"},
		{`[5,1,7,2]`, `[5.0,1,7,2]`, "trace", "re-encoding differs"},
		{`"values":0`, `"values":1`, "trace", "re-encoding differs"},
		{`"switches":[{"name":"sw0","values":0}]`, `"switches":null`, "trace", "re-encoding differs"},
	} {
		section := strings.Replace(okSection, c.old, c.new, 1)
		if section == okSection {
			t.Fatalf("%q is not in the section", c.old)
		}
		var td TraceDoc
		err := td.UnmarshalJSON([]byte(section))
		var te *TraceError
		if !errors.As(err, &te) || te.Path != c.path || !strings.Contains(te.Reason, c.why) {
			t.Errorf("%s:\n got %v\nwant a TraceError at %s saying %q", section, err, c.path, c.why)
		}
		if _, err := DecodeTrace([]byte(`{"schema":2,"trace":` + section + "}\n")); !errors.As(err, &te) || te.Path != c.path {
			t.Errorf("DecodeTrace of %s: %v, want a TraceError at %s", section, err, c.path)
		}
	}
}

// A series value is an int32 count, or the section is refused at its
// series: fractions, -0, counts past either int32 bound, and the other
// values a float64 series could once carry (exponents either side of the
// 1e-6 and 1e21 format edges, 2^53, the float extremes, subnormals). The
// bounds themselves read back. NaN and infinities have no JSON spelling.
func TestTraceDecodeRefusesNonCounts(t *testing.T) {
	t.Parallel()
	for _, v := range []string{
		"0.5", "-0", "1e21", "1e-7", "2147483648", "-2147483649",
		"1e+21", "-1e+21", "-2.25", "0.000001", "-1e-7", "9.999999e-7", "1e-9", "1e-10", "100000000000000000000", "1.5e+300",
		"9007199254740992", "9007199254740991", "9007199254740994", "-9007199254740992", "-9007199254740991",
		"1152921504606846976", "9223372036854775807", "-9223372036854775808",
		"1.7976931348623157e+308", "5e-324", "2.2250738585072014e-308",
	} {
		section := strings.Replace(okSection, `[0,3]`, "[0,1,"+v+",2]", 1)
		var td TraceDoc
		err := td.UnmarshalJSON([]byte(section))
		var te *TraceError
		if !errors.As(err, &te) || te.Path != "trace.series[1]" || !strings.Contains(te.Reason, "is not an int32 count") {
			t.Errorf("value %s: got %v, want a TraceError at trace.series[1]", v, err)
		}
	}
	for _, v := range []int32{math.MaxInt32, math.MinInt32} {
		section := strings.Replace(okSection, `[0,3]`, fmt.Sprintf("[0,1,%d,2]", v), 1)
		var td TraceDoc
		if err := td.UnmarshalJSON([]byte(section)); err != nil || td.Queues[1].Occupancy[2] != v {
			t.Errorf("value %d: got %v, %v", v, err, td.Queues)
		}
	}
	for _, v := range []string{"NaN", "Infinity", "-Infinity"} {
		var td TraceDoc
		err := td.UnmarshalJSON([]byte(strings.Replace(okSection, `[0,3]`, "[0,1,"+v+",2]", 1)))
		if te := (*TraceError)(nil); !errors.As(err, &te) || te.Path != "trace" {
			t.Errorf("value %s: got %v, want a TraceError at trace", v, err)
		}
	}
}

// FuzzTraceDecode feeds the decoder arbitrary section bytes. It must not
// panic, refuses with a *TraceError only, and what it accepts encodes
// back to exactly the bytes it read.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte(okSection))
	f.Add([]byte(strings.Replace(okSection, `[0,3]`, `[-0,1,0,1,1e-7,1]`, 1)))
	f.Add([]byte(strings.Replace(okSection, `[0,3]`, `[1e+21,3]`, 1)))
	f.Add([]byte(`{"sample_every":"1ms","samples":1,"switches":[],"queues":[],"series":[]}`))
	f.Add([]byte(`{"sample_every":"1ms","times":["0s"],"switches":[],"queues":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var td TraceDoc
		if err := td.UnmarshalJSON(data); err != nil {
			var te *TraceError
			if !errors.As(err, &te) {
				t.Fatalf("refused with %T: %v", err, err)
			}
			return
		}
		again, err := td.MarshalJSON()
		if err != nil || string(again) != string(data) {
			t.Fatalf("accepted %s\nbut it encodes back to %s (err %v)", data, again, err)
		}
	})
}
