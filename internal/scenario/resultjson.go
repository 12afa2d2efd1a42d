package scenario

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"occamy/internal/experiments"
	"occamy/internal/metrics"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
	"occamy/internal/trace"
)

// Results as data
//
// Specs became files in PR 3; this file does the same for results, so a
// run's output can leave the process — served over HTTP by
// internal/service, cached by content address, dumped by the CLI
// (`occamy-scenario run -json`) — without losing anything the text
// tables render. The encoding is canonical: field order is fixed by the
// struct definitions, durations use the exact-round-trip string form of
// sim.Duration, and encoding/json is deterministic, so the same Result
// always marshals to the same bytes (the cache-identity tests pin it).
//
// The encoder is split. encoding/json writes every field but the last,
// the trace, which traceWriter appends with strconv, spliced in before
// the closing brace. The trace goes on the wire as its runs (TraceDoc):
// one writer, which TraceDoc.MarshalJSON shares, so Encode() equals
// json.Marshal(doc) plus "\n", and one expander, TraceDoc.UnmarshalJSON.
// json.Marshal of the traceless document is the head's oracle in the
// catalog differential, FuzzTraceEncode and FuzzSplitTrace; the trace's
// is the round trip: Encode's bytes decode to every series bit for bit,
// and the decoded document encodes to the same bytes.
//
// The splice leaves a seam, and SplitTrace finds it again in the encoded
// bytes, so the tiers that store and relay a document hand out its head
// (3–14 KB of a 13–500 KB catalog document) or its trace without parsing
// either. The forward byte search is exact: inside a JSON string every
// quote is written \", so the seam's bare quotes cannot occur in a name,
// and outside one only a "trace" field opening with "sample_every" (the
// section's first field) spells it — the TraceDoc, the document's last
// field and its only one.

// Version identifies the result-affecting revision of the simulation
// code. It is folded into every spec fingerprint, so a persisted result
// cache can never serve bytes computed by an older simulator as if they
// were current — bump it whenever simulation behavior changes.
const Version = "6"

// ResultSchemaVersion is the JSON result document schema, carried in
// every document so readers can detect incompatible encodings.
const ResultSchemaVersion = 2

// Fingerprint returns the spec's content address: a sha256 over the
// canonical JSON bytes of the scale- and default-resolved spec, domain-
// separated by Version. PR 3's canonicalization (fixed field order,
// sorted map keys, exact duration strings) guarantees equal specs hash
// equal even when written differently — a spec that spells out a
// default and one that omits it resolve to the same bytes. Every RNG in
// a run is seeded from the spec, so the fingerprint addresses the
// result, not just the input.
func (s Spec) Fingerprint() (string, error) {
	resolved := s.ApplyScale().WithDefaults()
	data, err := json.Marshal(resolved)
	if err != nil {
		return "", fmt.Errorf("scenario: fingerprinting spec %q: %w", s.Name, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "occamy/result/v%s/schema%d\n", Version, ResultSchemaVersion)
	h.Write(data)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// TableDoc is a rendered table in JSON form (summary rows, sweep grids).
type TableDoc struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// NewTableDoc converts a rendered table.
func NewTableDoc(t *experiments.Table) TableDoc {
	return TableDoc{ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows}
}

// Encode marshals the table compactly with a trailing newline — the
// canonical sweep-result bytes served by the service and the fleet
// router (their byte-identity contract shares this one encoder).
func (d *TableDoc) Encode() ([]byte, error) {
	data, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("scenario: marshaling table %q: %w", d.ID, err)
	}
	return sealLine(data), nil
}

// sealLine returns data plus the canonical trailing newline with
// cap == len: result bytes are retained by service.Cache and the job
// ledger, so spare capacity is memory held as long as the entry lives.
func sealLine(data []byte) []byte {
	out := make([]byte, len(data)+1)
	copy(out, data)
	out[len(data)] = '\n'
	return out
}

// TailRowDoc is one tail-table line: a labeled sample population with
// its completion-time and slowdown quantiles (at Quantiles positions).
type TailRowDoc struct {
	Label    string         `json:"label"`
	Count    int            `json:"count"`
	FCT      []sim.Duration `json:"fct,omitempty"`
	Slowdown []float64      `json:"slowdown,omitempty"`
}

// WorkloadDoc is one workload's run output.
type WorkloadDoc struct {
	Kind     string `json:"kind"`
	Label    string `json:"label"`
	Launched int64  `json:"launched"`
	Done     int64  `json:"done,omitempty"`
	Timeouts int64  `json:"timeouts,omitempty"`
	// Raw-injection accounting (cbr/burst workloads only).
	SentPackets int64 `json:"sent_packets,omitempty"`
	SentBytes   int64 `json:"sent_bytes,omitempty"`
	Drops       int64 `json:"drops,omitempty"`
	// Completions is the number of FCT/QCT samples collected; Tails the
	// quantile breakdown (an "all" row plus one per flow-size bucket).
	Completions int          `json:"completions"`
	Tails       []TailRowDoc `json:"tails,omitempty"`
}

// StatsDoc mirrors switchsim.Stats with a stable JSON schema.
type StatsDoc struct {
	RxPackets      int64 `json:"rx_packets"`
	TxPackets      int64 `json:"tx_packets"`
	TxBytes        int64 `json:"tx_bytes"`
	DropsAdmission int64 `json:"drops_admission"`
	DropsNoMemory  int64 `json:"drops_nomem"`
	DropsExpelled  int64 `json:"drops_expelled"`
	ECNMarked      int64 `json:"ecn_marked"`
}

func newStatsDoc(s switchsim.Stats) StatsDoc {
	return StatsDoc{
		RxPackets: s.RxPackets, TxPackets: s.TxPackets, TxBytes: s.TxBytes,
		DropsAdmission: s.DropsAdmission, DropsNoMemory: s.DropsNoMemory,
		DropsExpelled: s.DropsExpelled, ECNMarked: s.ECNMarked,
	}
}

// PortDoc is one egress port's counters and sampled occupancy extremes.
type PortDoc struct {
	TxPackets      int64   `json:"tx_packets"`
	TxBytes        int64   `json:"tx_bytes"`
	DropsAdmission int64   `json:"drops_admission,omitempty"`
	DropsNoMemory  int64   `json:"drops_nomem,omitempty"`
	DropsExpelled  int64   `json:"drops_expelled,omitempty"`
	ECNMarked      int64   `json:"ecn_marked,omitempty"`
	PeakBytes      int     `json:"peak_bytes"`
	MeanBytes      float64 `json:"mean_bytes"`
}

// QueueDoc is one (port, class) queue's counters and sampled dynamics.
type QueueDoc struct {
	Port           int     `json:"port"`
	Class          int     `json:"class"`
	TxPackets      int64   `json:"tx_packets"`
	TxBytes        int64   `json:"tx_bytes"`
	DropsAdmission int64   `json:"drops_admission,omitempty"`
	DropsNoMemory  int64   `json:"drops_nomem,omitempty"`
	DropsExpelled  int64   `json:"drops_expelled,omitempty"`
	ECNMarked      int64   `json:"ecn_marked,omitempty"`
	PeakBytes      int     `json:"peak_bytes"`
	MeanBytes      float64 `json:"mean_bytes"`
	// MinThresholdHeadroom is the smallest sampled gap between the
	// admission threshold (capacity-clamped) and the queue length, in
	// bytes; negative while the queue sat over its threshold.
	MinThresholdHeadroom int `json:"min_thr_headroom_bytes"`
}

// SwitchDoc is one switch's stats and telemetry summary.
type SwitchDoc struct {
	Name      string     `json:"name"`
	Classes   int        `json:"classes"`
	Stats     StatsDoc   `json:"stats"`
	Buffered  int        `json:"buffered_packets"`
	PeakBytes int        `json:"peak_bytes"`
	MeanBytes float64    `json:"mean_bytes"`
	Ports     []PortDoc  `json:"ports"`
	Queues    []QueueDoc `json:"queues"`
}

// SeriesDoc is one named occupancy time series.
type SeriesDoc = trace.Series

// QueueSeriesDoc is one queue's occupancy series with the admission
// threshold and cumulative ECN-mark counter sampled at the same
// instants (the Fig 3/11 overlay pair plus the marking dynamics).
type QueueSeriesDoc struct {
	Name      string
	Occupancy []int32
	Threshold []int32
	ECN       []int32
}

// FaultLinkDoc is one faulted link's injection counters.
type FaultLinkDoc struct {
	Name       string `json:"name"`
	Class      string `json:"class"`
	Offered    int64  `json:"offered"`
	Delivered  int64  `json:"delivered"`
	Dropped    int64  `json:"dropped,omitempty"`
	Duplicated int64  `json:"duplicated,omitempty"`
	Held       int64  `json:"held,omitempty"`
	Reordered  int64  `json:"reordered,omitempty"`
}

// TraceDoc carries the aligned occupancy time series of a run: sample i
// of every series was taken at i·SampleEvery, and every value is a byte
// or mark count. In memory the series are dense int32s and may share a
// slice, as a recorder's do. On the wire each
// distinct slice is numbered at first use and written once, last, as
// flat (value, run length) pairs:
//
//	{"sample_every":"11µs","samples":4,"switches":[{"name":"sw0","values":0}],
//	 "queues":[{"name":"sw0:p0q0","occupancy":0,"threshold":1,"ecn":1}],"series":[[1500,1,0,3],[0,4]]}
type TraceDoc struct {
	SampleEvery sim.Duration
	Samples     int
	Switches    []SeriesDoc
	Queues      []QueueSeriesDoc
}

// ResultDoc is the complete JSON encoding of a scenario run: everything
// the text tables render (summary row, tail quantiles, per-switch /
// per-port / per-queue telemetry) plus the trace series, keyed by the
// spec that produced it.
type ResultDoc struct {
	Schema      int    `json:"schema"`
	Name        string `json:"name"`
	Title       string `json:"title,omitempty"`
	Fingerprint string `json:"fingerprint"`
	// Spec is the scale- and default-resolved spec the run executed —
	// the fingerprint preimage, not necessarily the bytes submitted.
	Spec Spec `json:"spec"`
	// Summary is the rendered metric row (the CLI summary table).
	Summary   TableDoc      `json:"summary"`
	Workloads []WorkloadDoc `json:"workloads"`
	Total     StatsDoc      `json:"total"`
	Switches  []SwitchDoc   `json:"switches"`
	// BufferBytes is the per-switch capacity; MaxOccupancy the sampled
	// whole-run peak; Events the simulator events executed.
	BufferBytes  int    `json:"buffer_bytes"`
	MaxOccupancy int    `json:"max_occupancy"`
	Events       uint64 `json:"events"`
	// Faults holds the per-link fault-injection counters of a degraded-
	// link run, in wiring order; absent on ideal-link runs.
	Faults []FaultLinkDoc `json:"faults,omitempty"`
	Trace  *TraceDoc      `json:"trace,omitempty"`
}

// Doc distills the result into its JSON document form. withTrace
// controls whether the (large) time-series section is included; the
// summary, tails, and per-switch/per-queue aggregates always are.
func (r *Result) Doc(withTrace bool) (*ResultDoc, error) {
	fp, err := r.Spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	doc := &ResultDoc{
		Schema:       ResultSchemaVersion,
		Name:         r.Spec.Name,
		Title:        r.Spec.Title,
		Fingerprint:  fp,
		Spec:         r.Spec.ApplyScale().WithDefaults(),
		Summary:      NewTableDoc(r.Table()),
		Total:        newStatsDoc(r.Total),
		BufferBytes:  r.BufferBytes,
		MaxOccupancy: r.MaxOccupancy,
		Events:       r.Events,
	}
	for i := range r.Workloads {
		ws := &r.Workloads[i]
		wd := WorkloadDoc{
			Kind: ws.Kind, Label: ws.Label,
			Launched: ws.Launched, Done: ws.Done, Timeouts: ws.Timeouts,
			SentPackets: ws.SentPackets, SentBytes: ws.SentBytes, Drops: ws.Drops,
			Completions: ws.Col.Count(),
		}
		if ws.Kind != WLCBR && ws.Kind != WLBurst {
			for _, row := range ws.Col.TailRows(metrics.DefaultSizeBuckets, metrics.TailQuantiles) {
				td := TailRowDoc{Label: row.Label, Count: row.Count}
				if row.Count > 0 {
					td.FCT, td.Slowdown = row.FCT, row.Slowdown
				}
				wd.Tails = append(wd.Tails, td)
			}
		}
		doc.Workloads = append(doc.Workloads, wd)
	}
	for i := range r.Telemetry {
		tel := &r.Telemetry[i]
		sd := SwitchDoc{
			Name:      tel.Name,
			Classes:   tel.Classes,
			Stats:     newStatsDoc(r.PerSwitch[i]),
			Buffered:  r.Buffered[i],
			PeakBytes: tel.PeakOcc,
			MeanBytes: tel.MeanOcc,
		}
		for p, ps := range tel.Ports {
			sd.Ports = append(sd.Ports, PortDoc{
				TxPackets: ps.TxPackets, TxBytes: ps.TxBytes,
				DropsAdmission: ps.DropsAdmission, DropsNoMemory: ps.DropsNoMemory,
				DropsExpelled: ps.DropsExpelled, ECNMarked: ps.ECNMarked,
				PeakBytes: tel.PortPeak[p], MeanBytes: tel.PortMean[p],
			})
		}
		for q := range tel.Queues {
			qt := &tel.Queues[q]
			sd.Queues = append(sd.Queues, QueueDoc{
				Port: qt.Port, Class: qt.Class,
				TxPackets: qt.Stats.TxPackets, TxBytes: qt.Stats.TxBytes,
				DropsAdmission: qt.Stats.DropsAdmission, DropsNoMemory: qt.Stats.DropsNoMemory,
				DropsExpelled: qt.Stats.DropsExpelled, ECNMarked: qt.Stats.ECNMarked,
				PeakBytes: qt.Peak, MeanBytes: qt.Mean, MinThresholdHeadroom: qt.MinHeadroom,
			})
		}
		doc.Switches = append(doc.Switches, sd)
	}
	for _, l := range r.FaultLinks {
		doc.Faults = append(doc.Faults, FaultLinkDoc{
			Name: l.Name, Class: l.Class.String(),
			Offered: l.Offered, Delivered: l.Delivered, Dropped: l.Dropped,
			Duplicated: l.Duplicated, Held: l.Held, Reordered: l.Reordered,
		})
	}
	if withTrace && len(r.SampleTimes) > 0 {
		td := &TraceDoc{SampleEvery: r.SampleEvery, Samples: len(r.SampleTimes)}
		for i := range r.Telemetry {
			tel := &r.Telemetry[i]
			td.Switches = append(td.Switches, SeriesDoc{Name: tel.Name, Values: tel.Series})
			for q := range tel.Queues {
				qt := &tel.Queues[q]
				td.Queues = append(td.Queues, QueueSeriesDoc{
					Name: tel.Name + ":" + qt.Label(), Occupancy: qt.Series,
					Threshold: qt.Threshold, ECN: qt.ECNMarks,
				})
			}
		}
		doc.Trace = td
	}
	return doc, nil
}

// EncodeJSON marshals the result document in its canonical compact
// form: deterministic bytes for a deterministic run, so content-
// addressed caches can compare results byte-for-byte.
func (r *Result) EncodeJSON(withTrace bool) ([]byte, error) {
	doc, err := r.Doc(withTrace)
	if err != nil {
		return nil, err
	}
	return doc.Encode()
}

// The seam: what Encode puts between the head and the trace section's
// first value.
const traceKey, traceOpen = `,"trace":`, `{"sample_every":`

// SplitTrace is Encode's splice run backwards, on its bytes: doc is
// head + traceKey + trace + "}\n", where head + "}\n" is what
// Doc(false) encodes to and trace what json.Marshal(doc.Trace) gives.
// A document without a trace section (a traceless run, a sweep table)
// comes back whole, with a nil trace.
func SplitTrace(doc []byte) (head, trace []byte) {
	i := bytes.Index(doc, []byte(traceKey+traceOpen))
	if i < 0 || !bytes.HasSuffix(doc, []byte("}}\n")) {
		return doc, nil
	}
	return doc[:i], doc[i+len(traceKey) : len(doc)-len("}\n")]
}

// Encode marshals the document compactly with a trailing newline, in a
// slice of exactly that length (see sealLine).
func (d *ResultDoc) Encode() ([]byte, error) {
	head := *d
	head.Trace = nil
	data, err := json.Marshal(&head)
	if err != nil {
		return nil, fmt.Errorf("scenario: marshaling result %q: %w", d.Name, err)
	}
	if d.Trace == nil {
		return sealLine(data), nil
	}
	w := writeTrace(d.Trace)
	defer w.release()
	if w.err != nil {
		return nil, fmt.Errorf("scenario: marshaling result %q: %w", d.Name, w.err)
	}
	// The closing brace moves behind the trace.
	out := make([]byte, 0, len(data)+len(traceKey)+len(w.b)+1)
	out = append(append(append(out, data[:len(data)-1]...), traceKey...), w.b...)
	return append(out, "}\n"...), nil
}

// MarshalJSON writes the wire form with Encode's writer, so
// json.Marshal(doc) and doc.Encode() cannot disagree.
func (t *TraceDoc) MarshalJSON() ([]byte, error) {
	w := writeTrace(t)
	defer w.release()
	return bytes.Clone(w.b), w.err
}

// TraceError is a trace section that cannot be written or read back:
// Path names the field at fault, as in trace.queues[3].threshold.
type TraceError struct {
	Path, Reason string
}

func (e *TraceError) Error() string { return e.Path + ": " + e.Reason }

// maxTraceSamples bounds a trace's length (the catalog's longest is
// 4 101 samples), and maxTraceValues its dense size, distinct series
// times samples (the catalog's largest is 398 K, incast-storm-256 under
// ABM at full scale): a section of any bytes decodes into at most 64 MB.
const maxTraceSamples, maxTraceValues = 1 << 20, 1 << 24

// encodeScratch recycles the writer, and the buffer, a trace section is
// written in. The garbage collector empties the pool between long jobs,
// so a fresh buffer starts at the last section's size (lastSection).
var (
	encodeScratch = sync.Pool{New: func() any { return &traceWriter{ids: map[*int32]int{}} }}
	lastSection   atomic.Int64
)

// traceWriter appends a TraceDoc's wire form. err is the first fault, a
// *TraceError.
type traceWriter struct {
	b   []byte
	err error
	// ids numbers the section's distinct series, each known by its first
	// element's address, and order lists them by number.
	ids   map[*int32]int
	order [][]int32
}

// writeTrace writes t's section with a pooled writer, which the caller
// releases when it has copied out w.b.
func writeTrace(t *TraceDoc) *traceWriter {
	w := encodeScratch.Get().(*traceWriter)
	w.b = slices.Grow(w.b[:0], int(lastSection.Load()))
	w.trace(t)
	lastSection.Store(int64(len(w.b)))
	return w
}

// release returns w to the pool holding no pointer into a document.
func (w *traceWriter) release() {
	clear(w.ids)
	clear(w.order)
	w.order, w.err = w.order[:0], nil
	encodeScratch.Put(w)
}

func (w *traceWriter) raw(s string) { w.b = append(w.b, s...) }

// fail records the first fault of the section being written.
func (w *traceWriter) fail(path, format string, args ...any) {
	if w.err == nil {
		w.err = &TraceError{Path: path, Reason: fmt.Sprintf(format, args...)}
	}
}

// trace appends t's section. A series field is the number of its series,
// given at first use, and the table of series comes last.
func (w *traceWriter) trace(t *TraceDoc) {
	if t.Samples < 1 || t.Samples > maxTraceSamples {
		w.fail("trace.samples", "%d is outside [1, %d]", t.Samples, maxTraceSamples)
		return
	}
	w.raw(traceOpen)
	w.b = t.SampleEvery.AppendJSON(w.b)
	w.raw(`,"samples":`)
	w.b = strconv.AppendInt(w.b, int64(t.Samples), 10)
	w.list(`,"switches":`, len(t.Switches), func(i int) {
		w.raw(`{"name":`)
		w.str(t.Switches[i].Name)
		w.ref("switches", i, "values", t.Switches[i].Values, t.Samples)
		w.raw("}")
	})
	w.list(`,"queues":`, len(t.Queues), func(i int) {
		q := &t.Queues[i]
		w.raw(`{"name":`)
		w.str(q.Name)
		w.ref("queues", i, "occupancy", q.Occupancy, t.Samples)
		w.ref("queues", i, "threshold", q.Threshold, t.Samples)
		w.ref("queues", i, "ecn", q.ECN, t.Samples)
		w.raw("}")
	})
	if len(w.order) > maxTraceValues/t.Samples {
		w.fail("trace.series", "%d series of %d samples exceed %d values", len(w.order), t.Samples, maxTraceValues)
	}
	w.list(`,"series":`, len(w.order), func(i int) { w.runs(w.order[i]) })
	w.raw("}")
}

// list appends key and an n-element array whose i-th element elem(i)
// appends.
func (w *traceWriter) list(key string, n int, elem func(i int)) {
	w.raw(key)
	w.raw("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			w.raw(",")
		}
		elem(i)
	}
	w.raw("]")
}

// str appends s as encoding/json writes a string: printable ASCII free
// of the characters json escapes is copied between quotes, anything
// else goes through json.Marshal. A name that is not UTF-8 is a fault:
// it would read back as another name.
func (w *traceWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			if !utf8.ValidString(s) {
				w.fail("trace", "name %q is not UTF-8", s)
			}
			q, _ := json.Marshal(s)
			w.b = append(w.b, q...)
			return
		}
	}
	w.raw(`"`)
	w.raw(s)
	w.raw(`"`)
}

// ref appends a series field: the number of vs, a series of n samples.
func (w *traceWriter) ref(list string, i int, field string, vs []int32, n int) {
	if len(vs) != n {
		w.fail(fmt.Sprintf("trace.%s[%d].%s", list, i, field), "%d values for %d samples", len(vs), n)
		return
	}
	id, ok := w.ids[&vs[0]]
	if !ok {
		id = len(w.order)
		w.ids[&vs[0]], w.order = id, append(w.order, vs)
	}
	w.b = append(append(append(w.b, `,"`...), field...), `":`...)
	w.b = strconv.AppendInt(w.b, int64(id), 10)
}

// runs appends vs as flat (value, run length) pairs.
func (w *traceWriter) runs(vs []int32) {
	w.raw("[")
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		if i > 0 {
			w.raw(",")
		}
		w.b = strconv.AppendInt(w.b, int64(vs[i]), 10)
		w.raw(",")
		w.b = strconv.AppendInt(w.b, int64(j-i), 10)
		i = j
	}
	w.raw("]")
}

// checkRuns is why runs does not spell n samples as (int32 count, run
// length) pairs, or "".
func checkRuns(runs []float64, n int) string {
	if len(runs)%2 != 0 {
		return "an odd count of numbers"
	}
	for r := 0; r < len(runs); r += 2 {
		if v := runs[r]; v != math.Trunc(v) || v < math.MinInt32 || v > math.MaxInt32 || v == 0 && math.Signbit(v) {
			return fmt.Sprintf("value %v is not an int32 count", v)
		}
		if c := runs[r+1]; c < 1 || c > float64(n) || c != math.Trunc(c) {
			return fmt.Sprintf("run length %v is not a whole number from 1 to the %d samples left", c, n)
		}
		n -= int(runs[r+1])
	}
	if n != 0 {
		return fmt.Sprintf("runs leave %d samples uncovered", n)
	}
	return ""
}

// UnmarshalJSON reads the wire form, and only the bytes MarshalJSON
// writes. It checks samples and runs before it allocates, expands each
// series at its first use (the fields that number it share the slice),
// and refuses a section that re-encodes to other bytes: whitespace,
// another spelling of a number, a run split in two, a series out of
// first-use order. Every refusal is a *TraceError.
func (t *TraceDoc) UnmarshalJSON(data []byte) error {
	var wire struct {
		SampleEvery sim.Duration `json:"sample_every"`
		Samples     int
		Switches    []struct {
			Name   string
			Values int
		}
		Queues []struct {
			Name                 string
			Occupancy, Threshold int
			ECN                  int
		}
		Series [][]float64
	}
	if err := decodeStrict(data, &wire); err != nil {
		return &TraceError{"trace", err.Error()}
	}
	n := wire.Samples
	if n < 1 || n > maxTraceSamples {
		return &TraceError{"trace.samples", fmt.Sprintf("%d is outside [1, %d]", n, maxTraceSamples)}
	}
	if len(wire.Series) > maxTraceValues/n {
		return &TraceError{"trace.series", fmt.Sprintf("%d series of %d samples exceed %d values", len(wire.Series), n, maxTraceValues)}
	}
	for k, runs := range wire.Series {
		if why := checkRuns(runs, n); why != "" {
			return &TraceError{fmt.Sprintf("trace.series[%d]", k), why}
		}
	}
	series, bad := make([][]int32, len(wire.Series)), error(nil)
	ref := func(k int, list string, i int, field string) []int32 {
		if k < 0 || k >= len(series) {
			bad = cmp.Or(bad, error(&TraceError{fmt.Sprintf("trace.%s[%d].%s", list, i, field), fmt.Sprintf("series %d is not in the %d-series table", k, len(series))}))
			return nil
		}
		if series[k] == nil {
			series[k] = make([]int32, 0, n)
			for r, runs := 0, wire.Series[k]; r < len(runs); r += 2 {
				for c := int(runs[r+1]); c > 0; c-- {
					series[k] = append(series[k], int32(runs[r]))
				}
			}
		}
		return series[k]
	}
	d := TraceDoc{SampleEvery: wire.SampleEvery, Samples: n, Switches: make([]SeriesDoc, len(wire.Switches)), Queues: make([]QueueSeriesDoc, len(wire.Queues))}
	for i, s := range wire.Switches {
		d.Switches[i] = SeriesDoc{Name: s.Name, Values: ref(s.Values, "switches", i, "values")}
	}
	for i, q := range wire.Queues {
		d.Queues[i] = QueueSeriesDoc{q.Name, ref(q.Occupancy, "queues", i, "occupancy"),
			ref(q.Threshold, "queues", i, "threshold"), ref(q.ECN, "queues", i, "ecn")}
	}
	if bad != nil {
		return bad
	}
	w := writeTrace(&d)
	defer w.release()
	if !bytes.Equal(w.b, data) {
		at := 0
		for at < len(data) && at < len(w.b) && data[at] == w.b[at] {
			at++
		}
		return &TraceError{"trace", fmt.Sprintf("not in the one form this build writes: its re-encoding differs at byte %d", at)}
	}
	*t = d
	return nil
}

// DecodeResultDoc parses a result document, rejecting unknown fields
// and foreign schema versions (the strictness mirror of ParseSpec).
func DecodeResultDoc(data []byte) (*ResultDoc, error) {
	var d ResultDoc
	if err := decodeStrict(data, &d); err != nil {
		// Another schema's fields fail first; name its schema instead.
		var other struct{ Schema int }
		if json.Unmarshal(data, &other) != nil || other.Schema == 0 || other.Schema == ResultSchemaVersion {
			return nil, fmt.Errorf("scenario: parsing result document: %w", err)
		}
		d.Schema = other.Schema
	}
	if d.Schema != ResultSchemaVersion {
		return nil, fmt.Errorf("scenario: result document has schema %d, this build reads %d", d.Schema, ResultSchemaVersion)
	}
	return &d, nil
}

// DecodeTrace parses only the trace section of an encoded result
// document, as strictly as DecodeResultDoc parses the whole; it is what
// trace.csv reads. A document without a trace section yields nil.
func DecodeTrace(doc []byte) (*TraceDoc, error) {
	_, section := SplitTrace(doc)
	if section == nil {
		return nil, nil
	}
	var t TraceDoc
	if err := decodeStrict(section, &t); err != nil {
		return nil, fmt.Errorf("scenario: parsing trace section: %w", err)
	}
	return &t, nil
}
