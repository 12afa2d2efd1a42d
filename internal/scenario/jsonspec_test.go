package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Save→Load must be the identity on every catalog spec: a deep-equal
// spec back from JSON, and a byte-identical re-serialization (so
// exported templates are canonical, not drifting per round trip).
func TestSpecRoundTrip(t *testing.T) {
	t.Parallel()
	for _, name := range exportableNames(t) {
		for _, scale := range []Scale{ScaleQuick, ScaleFull, ScalePaper} {
			sc, _ := Get(name)
			spec := sc.SpecAt(scale)
			data, err := spec.Marshal()
			if err != nil {
				t.Fatalf("%s@%s: %v", name, scale, err)
			}
			back, err := ParseSpec(data)
			if err != nil {
				t.Fatalf("%s@%s: ParseSpec of own export: %v\n%s", name, scale, err, data)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Errorf("%s@%s: spec drifted across Save→Load:\nwant %+v\ngot  %+v", name, scale, spec, back)
			}
			again, err := back.Marshal()
			if err != nil {
				t.Fatalf("%s@%s: %v", name, scale, err)
			}
			if string(data) != string(again) {
				t.Errorf("%s@%s: serialization not canonical:\n--- first\n%s--- second\n%s", name, scale, data, again)
			}
		}
	}
}

// Differential gate for the file-spec path: every catalog scenario
// exported to JSON and re-run from the parsed file must encode to the
// in-code run's document byte for byte — same seed, same spec, every
// table and counter, the trace included. Any serialization loss (a
// dropped field, a duration rounding, a default resolved differently)
// shows up here.
func TestFileSpecDifferential(t *testing.T) {
	t.Parallel()
	eachEntry(t, func(t *testing.T, name string, c *corpusRun) {
		sc, _ := Get(name)
		data, err := sc.SpecAt(ScaleQuick).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ParseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		fromFile, err := Run(loaded)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fromFile.EncodeJSON(true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.data) {
			i := firstDiff(got, c.data)
			t.Errorf("file-spec run's document differs from the in-code run's at byte %d:\n--- in-code\n%s\n--- from file\n%s", i, clip(c.data[i:]), clip(got[i:]))
		}
	})
}

// A spec exported at full scale to a file, loaded, and re-run with its
// scale field set to quick, as `occamy-scenario run file.json -scale
// quick` does, runs the generic quick preset of the full spec and answers
// its queries.
func TestFileSpecRescaled(t *testing.T) {
	t.Parallel()
	sc, _ := Get("incast-storm-256")
	full := sc.SpecAt(ScaleFull)
	data, err := full.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "storm.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Scale = ScaleQuick
	fromFile, direct := MustRun(loaded), MustRun(QuickSpec(full))
	if a, b := render([]*Table{direct.Table()}), render([]*Table{fromFile.Table()}); a != b {
		t.Errorf("rescaled file spec differs from the quick preset:\n--- in-code\n%s--- from file\n%s", a, b)
	}
	if q := fromFile.incastStats(); q == nil || q.Done == 0 || q.Done < q.Launched {
		t.Errorf("rescaled file spec left queries unanswered: %+v", q)
	}
}

// The spec file parser is strict: unknown fields, malformed JSON, and
// trailing garbage are errors, not silent acceptance.
func TestParseSpecStrict(t *testing.T) {
	t.Parallel()
	valid := `{"name":"x","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},` +
		`"workloads":[{"kind":"background","load":0.5}]}`
	if _, err := ParseSpec([]byte(valid)); err != nil {
		t.Fatalf("minimal valid spec rejected: %v", err)
	}
	for _, c := range []struct{ name, data string }{
		{"unknown top-level field", `{"name":"x","bogus":1,"topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[{"kind":"background","load":0.5}]}`},
		{"unknown workload field", `{"name":"x","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[{"kind":"background","load":0.5,"lod":0.9}]}`},
		{"bad topology kind", `{"name":"x","topology":{"kind":"torus"},"policy":{"kind":"dt"},"workloads":[{"kind":"background","load":0.5}]}`},
		{"bad duration", `{"name":"x","duration":"2 parsecs","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[{"kind":"background","load":0.5}]}`},
		{"bad scale", `{"name":"x","scale":"huge","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[{"kind":"background","load":0.5}]}`},
		{"no name", `{"topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[{"kind":"background","load":0.5}]}`},
		{"trailing garbage", valid + `{"name":"y"}`},
		{"not an object", `[1,2,3]`},
		{"empty", ``},
	} {
		if _, err := ParseSpec([]byte(c.data)); err == nil {
			t.Errorf("%s: ParseSpec accepted invalid input", c.name)
		}
	}
}

// A spec's Scale field is honored by Run itself (the preset travels
// with the file): quick shrinks the gating query budget.
func TestSpecScaleField(t *testing.T) {
	t.Parallel()
	sc, _ := Get("mixed-load-90")
	spec := sc.Spec
	spec.Scale = ScaleQuick
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	gate := res.Workloads[2]
	if gate.Launched > 3 {
		t.Errorf("scale=quick spec launched %d queries, want <= 3", gate.Launched)
	}
	if _, err := ParseScale("huge"); err == nil || !strings.Contains(err.Error(), "huge") {
		t.Errorf("ParseScale accepted nonsense: %v", err)
	}
}

// FuzzLoadSpec: arbitrary JSON must never panic the parser, and any
// input it accepts must round-trip — Save→Load yields a deep-equal spec
// and a byte-identical canonical serialization (the same property the
// differential test extends to run tables for the catalog corpus).
func FuzzLoadSpec(f *testing.F) {
	// Seed with every exportable catalog entry at two scales plus the
	// strict-parser corner cases.
	for _, name := range Names() {
		sc, _ := Get(name)
		if sc.Tables != nil {
			continue
		}
		for _, scale := range []Scale{ScaleQuick, ScaleFull} {
			data, err := sc.SpecAt(scale).Marshal()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"name":"x","topology":{"kind":"leaf-spine"},"policy":{"kind":"qpo"},` +
		`"workloads":[{"kind":"incast","query_size":1000,"queries":1}],"duration":"1ms","scale":"paper"}`))
	f.Add([]byte(`{"name":"x","bogus":true}`))
	f.Add([]byte(`{"degraded_ports":{"notanint":0.5}}`))
	// Malformed fault blocks: unknown selector, out-of-range probability,
	// bad duration syntax, wrong shapes.
	f.Add([]byte(`{"name":"x","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},` +
		`"workloads":[{"kind":"background","load":0.5}],"faults":{"all":{"loss_prob":0.5}}}`))
	f.Add([]byte(`{"name":"x","faults":{"spine-core":{"loss_prob":0.1}}}`))
	f.Add([]byte(`{"name":"x","faults":{"all":{"loss_prob":7}}}`))
	f.Add([]byte(`{"name":"x","faults":{"all":{"jitter_max":"3 parsecs"}}}`))
	f.Add([]byte(`{"name":"x","faults":{"all":{"reorder_prob":0.1}}}`))
	f.Add([]byte(`{"name":"x","faults":{"all":[0.1]}}`))
	f.Add([]byte(`{"name":"x","faults":0.1}`))
	f.Add([]byte(`[{}]`))
	f.Add([]byte(`nul`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data) // must not panic, whatever the input
		if err != nil {
			return
		}
		out, err := spec.Marshal()
		if err != nil {
			t.Fatalf("accepted spec does not re-marshal: %v", err)
		}
		back, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("own serialization rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("spec drifted across Save→Load:\nwant %+v\ngot  %+v", spec, back)
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(again) {
			t.Errorf("serialization not canonical:\n--- first\n%s--- second\n%s", out, again)
		}
	})
}
