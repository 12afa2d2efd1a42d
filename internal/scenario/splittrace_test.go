package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// SplitTrace's contract: it is Encode's splice run backwards on the
// encoded bytes. For a traced document head + "}\n" is what the same
// document encodes to without its trace, trace is json.Marshal of the
// section, the seam occurs exactly once (the forward search's first
// match is the last), and the pieces are views of doc, not copies; a
// traceless document comes back whole. DecodeTrace reads that section
// back to the value it was written from.
func checkSplitTrace(t *testing.T, doc *ResultDoc) {
	t.Helper()
	full, err := doc.Encode()
	if err != nil {
		return // a NaN or an infinity: nothing was encoded, nothing to split
	}
	bare := *doc
	bare.Trace = nil
	wantHead, err := bare.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if whole, none := SplitTrace(wantHead); none != nil || !bytes.Equal(whole, wantHead) {
		t.Fatalf("traceless document was split: trace %s", clip(none))
	}
	head, trace := SplitTrace(full)
	if doc.Trace == nil {
		if trace != nil || !bytes.Equal(head, full) {
			t.Fatalf("traceless document was split: trace %s", clip(trace))
		}
		return
	}
	wantTrace, err := json.Marshal(doc.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if string(head)+"}\n" != string(wantHead) {
		t.Fatalf("head differs from the traceless encoding at byte %d:\n got %s\nwant %s",
			firstDiff(head, wantHead), clip(head), clip(wantHead))
	}
	if !bytes.Equal(trace, wantTrace) {
		t.Fatalf("trace differs from json.Marshal(doc.Trace) at byte %d:\n got %s\nwant %s",
			firstDiff(trace, wantTrace), clip(trace), clip(wantTrace))
	}
	if n := bytes.Count(full, []byte(traceKey+traceOpen)); n != 1 {
		t.Fatalf("the seam occurs %d times in the document, want once", n)
	}
	if &head[0] != &full[0] || &trace[len(trace)-1] != &full[len(full)-3] {
		t.Fatal("SplitTrace copied: head and trace must be views of the document")
	}
	back, err := DecodeTrace(full)
	if err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	checkSameTrace(t, back, doc.Trace)
}

// Every catalog entry, traced and not: the head a job view's ?part=head
// serves is the traceless document, and the section trace.csv decodes
// is the trace.
func TestSplitTraceCatalog(t *testing.T) {
	t.Parallel()
	eachEntry(t, func(t *testing.T, name string, c *corpusRun) {
		checkSplitTrace(t, c.doc)
		checkSplitTrace(t, mustDoc(t, c.res, false))
		if i := bytes.Index(c.data, []byte(traceKey+traceOpen)); i < 0 || i > 16<<10 {
			t.Errorf("%s: seam at byte %d of %d; the head is expected within 16 KB", name, i, len(c.data))
		}
	})
}

// Documents that are not results have no seam: sweep tables, arbitrary
// JSON, a seam without the document's closing bytes, nothing at all.
// And DecodeTrace is as strict as DecodeResultDoc.
func TestSplitTraceLeavesOtherDocumentsWhole(t *testing.T) {
	t.Parallel()
	table, err := (&TableDoc{ID: "t", Title: traceKey + traceOpen, Columns: []string{"x"}, Rows: [][]string{{"1"}}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range [][]byte{
		table, nil, []byte("{}\n"), []byte("[1,2]\n"),
		[]byte(`{"a":1` + traceKey + traceOpen + `"1ms"}}`),       // no newline
		[]byte(`{"a":1` + traceKey + traceOpen + `"1ms"}` + "\n"), // one brace short
	} {
		if head, trace := SplitTrace(doc); trace != nil || !bytes.Equal(head, doc) {
			t.Errorf("SplitTrace(%q) = %q, %q; want the document whole", doc, head, trace)
		}
		if tr, err := DecodeTrace(doc); tr != nil || err != nil {
			t.Errorf("DecodeTrace(%q) = %v, %v; want nil, nil", doc, tr, err)
		}
	}
	for _, section := range []string{
		`{"sample_every":"1ms","samples":1,"series":[[0,1]],"switches":[],"queues":[],"extra":1}`,
		`{"sample_every":"1ms","times":["0s"],"switches":[],"queues":[]}`,
		`{"sample_every":"1ms","samples":1}}`,
		`{"sample_every":"1ms","samples":[}`,
	} {
		if tr, err := DecodeTrace([]byte(`{"schema":2,"trace":` + section + "}\n")); err == nil {
			t.Errorf("DecodeTrace accepted the section %s: %+v", section, tr)
		}
	}
}

// FuzzSplitTrace runs the seam contract over FuzzTraceEncode's
// documents: document, switch and queue names that carry quotes,
// braces and the seam itself must not move the cut.
func FuzzSplitTrace(f *testing.F) {
	f.Add([]byte{})
	for k := range fuzzNames {
		name := byte(k)
		seed := []byte{name, name, 0xe8, 3, 0, 0, 0, 0, 0, 0} // document name and title, sample_every 1µs
		seed = append(seed, 1)                                // one sample
		seed = append(seed, 1, name, 0, 7)                    // one switch under that name
		seed = append(seed, 1, name, 0, 7, 0, 7, 7)           // one queue under it: occupancy, threshold, nil ecn
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSrc{data: data}
		doc := &ResultDoc{Schema: ResultSchemaVersion, Name: src.name(), Title: src.name(), Trace: src.trace()}
		checkSplitTrace(t, doc)
	})
}
