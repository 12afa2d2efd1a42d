package scenario

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"occamy/internal/sim"
)

// The split encoder's contract: ResultDoc.Encode produces, byte for
// byte, what the reflective encoder produces for the same document plus
// the canonical newline — or fails exactly when it fails. json.Marshal
// survives in this package only as that oracle.
func checkEncodeAgainstReflect(t *testing.T, doc *ResultDoc) []byte {
	t.Helper()
	got, gotErr := doc.Encode()
	want, wantErr := json.Marshal(doc)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("error parity: Encode %v, json.Marshal %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if string(got) != string(want)+"\n" {
		t.Fatalf("Encode differs from json.Marshal at byte %d:\n got %s\nwant %s",
			firstDiff(got, want), clip(got), clip(want))
	}
	if cap(got) != len(got) {
		t.Fatalf("Encode returned cap %d for len %d: retained result bytes must be exact", cap(got), len(got))
	}
	return got
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
// job, a cached result and a CLI -json dump carry are the reflective
// encoder's, and they decode back to a document that encodes to them.
func TestEncodeMatchesReflectCatalog(t *testing.T) {
	t.Parallel()
	for _, name := range exportableNames(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, _ := Get(name)
			res, err := Run(sc.SpecAt(ScaleQuick))
			if err != nil {
				t.Fatal(err)
			}
			for _, withTrace := range []bool{true, false} {
				doc, err := res.Doc(withTrace)
				if err != nil {
					t.Fatal(err)
				}
				if withTrace != doc.HasTrace() {
					t.Fatalf("Doc(%v) has trace: %v", withTrace, doc.HasTrace())
				}
				data := checkEncodeAgainstReflect(t, doc)
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
	sc, _ := Get("quickstart")
	res, err := Run(sc.SpecAt(ScaleQuick))
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.EncodeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.TrimSuffix(string(data), "\n")
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
	made [][]float64
	zero [4]float64
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

// The values where the two number formats, the integer fast path and
// the error path meet.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1500, 1 << 20, 0.5, -2.25, 1e-6, 1e-7, -1e-7, 9.999999e-7,
	1e20, 1e21, -1e21, 1.5e300, 1e-9, 1e-10, 1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), -(1<<53 - 1),
	1 << 60, math.MaxInt64, math.MinInt64, math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzRepeat and above, as a value's first byte, repeat the previous
// value: a run, as most of a recorded trace is.
const fuzzRepeat = 224

func (s *fuzzSrc) float(prev float64) float64 {
	switch k := int(s.byte()); {
	case k < len(fuzzFloats):
		return fuzzFloats[k]
	case k < 160:
		return float64(int(s.byte())<<8 | int(s.byte())) // a byte count, the common case
	case k < fuzzRepeat:
		return math.Float64frombits(s.bits())
	default:
		return prev
	}
}

// fuzzAlias and above, as a series' first byte, deal a series that
// shares its backing array with another: one dealt before, whole or
// shortened, or the zero series at some length. fuzzAlias+3 deals a copy
// of one dealt before instead: equal contents at another address.
const fuzzAlias = 240

// floats yields nil, empty and short slices, and aliases.
func (s *fuzzSrc) floats() []float64 {
	k := s.byte()
	if k >= fuzzAlias {
		n := int(s.byte())
		if len(s.made) == 0 || k%4 == 0 {
			return s.zero[:n%(len(s.zero)+1)]
		}
		prior := s.made[n%len(s.made)]
		switch k % 4 {
		case 1:
			return prior
		case 2:
			return prior[:len(prior)/2]
		}
		return slices.Clone(prior)
	}
	n := int(k % 6)
	if n == 5 {
		return nil
	}
	out := make([]float64, n)
	prev := 0.0
	for i := range out {
		out[i] = s.float(prev)
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

func (s *fuzzSrc) trace() *TraceDoc {
	td := &TraceDoc{SampleEvery: sim.Duration(s.bits())}
	if n := int(s.byte() % 6); n < 5 {
		td.Times = make([]sim.Time, n)
		for i := range td.Times {
			td.Times[i] = sim.Time(s.bits() >> (s.byte() % 64))
		}
	}
	if n := int(s.byte() % 4); n < 3 {
		td.Switches = make([]SeriesDoc, n)
		for i := range td.Switches {
			td.Switches[i] = SeriesDoc{Name: s.name(), Values: s.floats()}
		}
	}
	if n := int(s.byte() % 4); n < 3 {
		td.Queues = make([]QueueSeriesDoc, n)
		for i := range td.Queues {
			td.Queues[i] = QueueSeriesDoc{Name: s.name(), Occupancy: s.floats(), Threshold: s.floats(), ECN: s.floats()}
		}
	}
	return td
}

// FuzzTraceEncode holds the append encoder to encoding/json over trace
// sections no run would produce: signed zeros, the 2^53 and 1e21 / 1e-6
// format boundaries, subnormals, NaN and infinities (both must fail),
// runs of one value (the encoder copies a repeat's bytes), nil versus
// empty slices, and names that need every kind of escaping.
func FuzzTraceEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	// One seed per special float and per special name: a one-switch,
	// one-queue document carrying that name three times and that value in
	// the values and occupancy series, over each shape of ecn.
	for k := 0; k < len(fuzzFloats) || k < len(fuzzNames); k++ {
		name, val := byte(k%len(fuzzNames)), byte(k%len(fuzzFloats))
		seed := []byte{name}                                      // document name
		seed = append(seed, 0xe8, 3, 0, 0, 0, 0, 0, 0)            // sample_every 1µs
		seed = append(seed, 1, 0x40, 0x42, 0xf, 0, 0, 0, 0, 0, 0) // one time, 1ms
		seed = append(seed, 1, name, 2, val, 200, 1, 2, 3, 4, 5, 6, 7, 8)
		seed = append(seed, 1, name, 1, val, 0) // occupancy of one, empty threshold
		switch k % 3 {                          // ecn: one value, empty, nil
		case 0:
			seed = append(seed, 1, val)
		case 1:
			seed = append(seed, 0)
		case 2:
			seed = append(seed, 5)
		}
		f.Add(seed)
	}
	// Side by side in one series, then repeated: neighbours whose bytes
	// differ though == holds (0, -0), and repeats the encoder may copy
	// (1e21, and NaN, whose copy must still fail).
	at := func(v float64) byte {
		for k, f := range fuzzFloats {
			if math.Float64bits(f) == math.Float64bits(v) {
				return byte(k)
			}
		}
		panic("not a fuzzFloats value")
	}
	negZero := math.Copysign(0, -1)
	for _, pair := range [][2]float64{{0, negZero}, {negZero, 0}, {1e21, 1e21}, {math.NaN(), math.NaN()}} {
		f.Add([]byte{
			1, 0xe8, 3, 0, 0, 0, 0, 0, 0, // name sw0, sample_every 1µs
			0,                                             // no times
			1, 1, 3, at(pair[0]), at(pair[1]), fuzzRepeat, // one switch: the pair, then a repeat
			3, // no queues
		})
	}
	// Series that share backing arrays, as a recorder's do: a threshold
	// aliasing another series, one zero series in several fields, a shorter
	// view of a series written before, and an equal copy at another
	// address — beside a series of the same length and other values.
	f.Add([]byte{
		// Name sw0, sample_every 1µs, no times.
		1, 0xe8, 3, 0, 0, 0, 0, 0, 0, 0,
		// One switch, whose values are 258, 2^20, 2^20 (dealt series 0).
		1, 1, 3, 40, 1, 2, 5, fuzzRepeat,
		// Two queues. The first: occupancy 7, 0.5, 1 (dealt series 1),
		// threshold series 0 again, ecn three zeros.
		2, 2, 3, 41, 0, 7, 6, 2, fuzzAlias + 1, 0, fuzzAlias, 3,
		// The second: occupancy the same three zeros, threshold series 1
		// halved, ecn a copy of series 1.
		3, fuzzAlias, 3, fuzzAlias + 2, 1, fuzzAlias + 3, 1,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSrc{data: data}
		doc := &ResultDoc{Schema: ResultSchemaVersion, Name: src.name(), Trace: src.trace()}
		checkEncodeAgainstReflect(t, doc)
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
