package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"occamy/internal/sim"
)

// The fingerprint is a content address: specs that resolve to the same
// run hash equal (explicit defaults vs omitted ones), and any field
// that changes the run changes the hash.
func TestFingerprintCanonical(t *testing.T) {
	t.Parallel()
	base := Spec{
		Name:     "fp-test",
		Topology: Topology{Kind: SingleSwitch},
		Policy:   Policy{Kind: "dt", Alpha: 1},
		Workloads: []Workload{
			{Kind: WLBackground, Load: 0.5},
		},
		// Explicit (= the default) so the scale mutation below actually
		// changes the resolved run: quick caps written durations only.
		Duration: 40 * sim.Millisecond,
	}
	fp, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fp, "sha256:") || len(fp) != len("sha256:")+64 {
		t.Fatalf("malformed fingerprint %q", fp)
	}

	// Spelling out what WithDefaults would resolve anyway must not
	// change the address: equal runs, equal keys.
	explicit := base
	explicit.Workloads = append([]Workload(nil), base.Workloads...)
	explicit.Seed = 42
	explicit.Topology.Hosts = 8
	explicit.Duration = 0 // resolves back to the written 40ms
	explicit.Workloads[0].PktSize = 1000
	if fp2, _ := explicit.Fingerprint(); fp2 != fp {
		t.Errorf("explicit defaults changed the fingerprint:\n%s\n%s", fp, fp2)
	}

	// Anything that changes the run must change the address.
	for name, mutate := range map[string]func(*Spec){
		"seed":     func(s *Spec) { s.Seed = 7 },
		"load":     func(s *Spec) { s.Workloads[0].Load = 0.6 },
		"policy":   func(s *Spec) { s.Policy.Kind = "occamy" },
		"hosts":    func(s *Spec) { s.Topology.Hosts = 16 },
		"scale":    func(s *Spec) { s.Scale = ScaleQuick },
		"duration": func(s *Spec) { s.Duration = 10 * sim.Millisecond },
	} {
		mut := base
		mut.Workloads = append([]Workload(nil), base.Workloads...)
		mutate(&mut)
		if fp2, _ := mut.Fingerprint(); fp2 == fp {
			t.Errorf("mutating %s left the fingerprint unchanged", name)
		}
	}

	// A catalog spec at two scales is two distinct addresses, and the
	// scale-pinning form hashes equal to its pre-resolved form
	// (ApplyScale is folded in before hashing).
	sc, _ := Get("leafspine-demo")
	spec := sc.Spec
	spec.Scale = ScaleQuick
	fpQuick, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpFull, err := sc.Spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpQuick == fpFull {
		t.Error("quick and full scales of leafspine-demo hash equal")
	}
	if fpResolved, _ := QuickSpec(sc.Spec).Fingerprint(); fpResolved != fpQuick {
		t.Errorf("scale=quick spec and its resolved form hash differently")
	}
}

// The result document must round-trip byte-identically (the property
// the content-addressed cache rests on) and reproduce the summary table
// cell-for-cell; TestTraceDocCatalogDifferential holds its trace CSV to
// the Result's.
func TestResultDocRoundTrip(t *testing.T) {
	t.Parallel()
	sc, _ := Get("mixed-class-incast")
	spec := sc.SpecAt(ScaleQuick)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.EncodeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := DecodeResultDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Error("result document not canonical across decode/encode")
	}

	// Metrics survive the trip byte-for-byte.
	tab := res.Table()
	if !reflect.DeepEqual(doc.Summary, NewTableDoc(tab)) {
		t.Errorf("summary drifted:\nwant %+v\ngot  %+v", NewTableDoc(tab), doc.Summary)
	}
	// So do the per-queue counters (satellite of the same PR).
	for i := range res.Telemetry {
		for q := range res.Telemetry[i].Queues {
			qt := &res.Telemetry[i].Queues[q]
			qd := doc.Switches[i].Queues[q]
			if qd.TxPackets != qt.Stats.TxPackets || qd.DropsExpelled != qt.Stats.DropsExpelled ||
				qd.DropsAdmission != qt.Stats.DropsAdmission || qd.ECNMarked != qt.Stats.ECNMarked {
				t.Fatalf("switch %d queue %d counters drifted: doc %+v vs %+v", i, q, qd, qt.Stats)
			}
		}
	}

	// Without the trace section the document still decodes.
	lean, err := res.EncodeJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	leanDoc, err := DecodeResultDoc(lean)
	if err != nil {
		t.Fatal(err)
	}
	if leanDoc.Trace != nil {
		t.Error("EncodeJSON(false) kept the trace section")
	}
	if len(lean) >= len(data) {
		t.Errorf("traceless encoding (%d B) not smaller than full (%d B)", len(lean), len(data))
	}

	// Strictness mirrors ParseSpec: unknown fields and foreign schemas
	// are rejected.
	if _, err := DecodeResultDoc([]byte(`{"schema":1,"bogus":true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DecodeResultDoc([]byte(`{"schema":99}`)); err == nil {
		t.Error("foreign schema version accepted")
	}
	// A schema-1 document, whose trace carries times, is refused for its
	// schema.
	old := `{"schema":1,"trace":{"sample_every":"1ms","times":["0s"],"switches":[],"queues":[]}}`
	if _, err := DecodeResultDoc([]byte(old)); err == nil || !strings.Contains(err.Error(), "has schema 1, this build reads 2") {
		t.Errorf("a schema-1 document: %v", err)
	}
}

// Every spec entry under four policies: the schema-2 document's trace
// expands, bit for bit, to the Result's dense telemetry, and the decoded
// document renders every view — the four deep tables, the trace CSV at
// three strides, the queue overlay — to the in-memory document's bytes:
// a served result shows exactly what the CLI printed for its run.
func TestTraceDocCatalogDifferential(t *testing.T) {
	t.Parallel()
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for _, name := range exportableNames(t) {
		for _, policy := range []string{"dt", "abm", "occamy", "pushout"} {
			sc, _ := Get(name)
			spec := sc.SpecAt(ScaleQuick)
			spec.Policy.Kind = policy
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			mem := mustDoc(t, res, true)
			data, err := mem.Encode()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			doc, err := DecodeResultDoc(data)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			tr, q := doc.Trace, 0
			if tr.Samples != len(res.SampleTimes) || len(tr.Switches) != len(res.Telemetry) {
				t.Fatalf("%s/%s: %d samples of %d switches, want %d of %d", name, policy, tr.Samples, len(tr.Switches), len(res.SampleTimes), len(res.Telemetry))
			}
			for i := range res.Telemetry {
				tel := &res.Telemetry[i]
				if !same(tr.Switches[i].Values, tel.Series) {
					t.Errorf("%s/%s: switch %s's series drifted", name, policy, tel.Name)
				}
				for j := range tel.Queues {
					qt, qd := &tel.Queues[j], &tr.Queues[q]
					if q++; !same(qd.Occupancy, qt.Series) || !same(qd.Threshold, qt.Threshold) || !same(qd.ECN, qt.ECNMarks) {
						t.Errorf("%s/%s: queue %s drifted", name, policy, qd.Name)
					}
				}
			}
			if q != len(tr.Queues) {
				t.Errorf("%s/%s: %d queues in the document, %d in the result", name, policy, len(tr.Queues), q)
			}
			views := func(d *ResultDoc) string {
				var b strings.Builder
				b.WriteString(render([]*Table{d.TailTable(), d.PerSwitchTable(), d.QueueTable(), d.FaultTable()}))
				for _, stride := range []int{1, 4, 7} {
					if err := d.Trace.WriteCSV(&b, stride); err != nil {
						t.Fatal(err)
					}
				}
				plot, err := d.Trace.QueueTracePlot(72, 8)
				fmt.Fprintf(&b, "%s%v", plot, err)
				return b.String()
			}
			if views(mem) != views(doc) {
				t.Errorf("%s/%s: the decoded document renders other views than the in-memory one", name, policy)
			}
		}
	}
}

// Identical runs encode to identical bytes — the determinism the cache
// identity test in internal/service depends on, pinned at the layer
// that provides it.
func TestResultEncodingDeterministic(t *testing.T) {
	t.Parallel()
	sc, _ := Get("burst-absorb")
	spec := sc.SpecAt(ScaleQuick)
	enc := func() string {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.EncodeJSON(true)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := enc(), enc(); a != b {
		t.Error("identical runs encoded to different bytes")
	}
}

// TraceDoc.WriteCSV's stride bounds the CSV: stride N keeps ceil(samples/N)
// rows, real samples with their exact timestamps (the stride=1 goldens
// elsewhere pin that full resolution is unchanged).
func TestTraceStride(t *testing.T) {
	t.Parallel()
	sc, _ := Get("quickstart")
	res, err := Run(sc.SpecAt(ScaleQuick))
	if err != nil {
		t.Fatal(err)
	}
	tr := mustDoc(t, res, true).Trace
	var full strings.Builder
	if err := tr.WriteCSV(&full, 1); err != nil {
		t.Fatal(err)
	}
	fullLines := strings.Split(strings.TrimRight(full.String(), "\n"), "\n")
	samples := len(res.SampleTimes)
	if len(fullLines) != samples+1 {
		t.Fatalf("stride 1: %d lines for %d samples", len(fullLines), samples)
	}
	for _, stride := range []int{2, 5, 64, samples + 10} {
		var out strings.Builder
		if err := tr.WriteCSV(&out, stride); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		want := (samples + stride - 1) / stride
		if len(lines) != want+1 {
			t.Errorf("stride %d: %d data rows, want %d", stride, len(lines)-1, want)
		}
		if lines[0] != fullLines[0] {
			t.Errorf("stride %d changed the header", stride)
		}
		// Surviving rows are the exact stride-th rows of the full dump.
		for i, l := range lines[1:] {
			if fullRow := fullLines[1+i*stride]; l != fullRow {
				t.Fatalf("stride %d row %d is not full-resolution row %d:\n%s\n%s", stride, i, i*stride, l, fullRow)
			}
		}
	}
}
