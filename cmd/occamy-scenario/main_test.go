package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"occamy/internal/scenario"
)

// stdout runs f and returns what it printed to standard output.
func stdout(t *testing.T, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	return <-out
}

// TestExportThenRunFile drives the export and run commands in process: a
// catalog entry exported to a JSON file runs from that file, -deep prints
// a faulted spec's per-link fault table, and -scale rescales a full-scale
// export.
func TestExportThenRunFile(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name        string
		export, run []string
		want        string
	}{
		{"flaky-tor-incast", []string{"-scale", "quick"}, []string{"-deep"}, "== flaky-tor-incast-faults: per-link fault injection counters =="},
		{"wan-degraded-leafspine", []string{"-scale", "quick"}, []string{"-deep"}, "== wan-degraded-leafspine-faults:"},
		{"incast-storm-256", nil, []string{"-scale", "quick"}, "== incast-storm-256:"},
		{"leafspine-demo", []string{"-scale", "quick"}, nil, "== leafspine-demo:"},
	} {
		path := filepath.Join(dir, c.name+".json")
		spec := stdout(t, func() { export(append([]string{c.name}, c.export...)) })
		if err := os.WriteFile(path, spec, 0o644); err != nil {
			t.Fatal(err)
		}
		if out := stdout(t, func() { run(append([]string{path}, c.run...)) }); !bytes.Contains(out, []byte(c.want)) {
			t.Errorf("run %s %v printed no %q:\n%s", path, c.run, c.want, out)
		}
	}
}

// TestCommandsPrintTheirHeaders runs the CLI's command forms in process,
// each row asserting the headers its output must carry: the list, two
// sweeps, single runs with every -deep table and a trace, a strided
// trace, a JSON result document, and -set on the topology and on the
// metric columns. The strided trace CSV keeps every 8th sample of the
// full one: ⌈n/8⌉ data rows.
func TestCommandsPrintTheirHeaders(t *testing.T) {
	dir := t.TempDir()
	csv := func(name string) string { return filepath.Join(dir, name) }
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"list"}, []string{fmt.Sprintf("%d registered scenarios:\n", len(scenario.Names())), "  quickstart "}},
		{[]string{"burst-absorb", "-scale", "quick", "-sweep", "policy.kind=dt,occamy"},
			[]string{"== burst-absorb: ", " (sweep policy.kind) ==\n", "\nkind=dt ", "\nkind=occamy "}},
		{[]string{"mixed-load-90", "-scale", "quick", "-deep", "-trace", csv("occ.csv")},
			[]string{"== mixed-load-90: ", "== mixed-load-90-tails: ", "== mixed-load-90-switches: ", "== mixed-load-90-queues: ",
				"occupancy trace (", "hottest queues vs policy threshold"}},
		{[]string{"mixed-class-incast", "-scale", "quick", "-deep", "-trace", csv("qocc.csv")},
			[]string{"== mixed-class-incast: ", "== mixed-class-incast-tails: ", "== mixed-class-incast-queues: ", "occupancy trace ("}},
		{[]string{"mixed-class-incast", "-scale", "quick", "-trace", csv("qocc8.csv"), "-trace-stride", "8"},
			[]string{"== mixed-class-incast: ", "occupancy trace (", "hottest queues vs policy threshold"}},
		{[]string{"quickstart", "-json"}, []string{`{"schema":2,"name":"quickstart",`}},
		{[]string{"priority-inversion-8", "-scale", "quick", "-sweep", "policy.kind=dt,occamy"},
			[]string{"== priority-inversion-8: ", " (sweep policy.kind) ==\n", "\nkind=dt ", "\nkind=occamy "}},
		{[]string{"buffer-choking", "-scale", "quick", "-set", "topology.kind=leaf-spine"}, []string{"== buffer-choking: ", "\nbuffer-choking "}},
		{[]string{"burst-absorb", "-scale", "quick", "-set", `metrics=["policy","drops","expelled"]`},
			[]string{"== burst-absorb: ", "\nscenario      policy       drops  expelled\n"}},
	} {
		var out []byte
		if c.args[0] == "list" {
			out = stdout(t, list)
		} else {
			out = stdout(t, func() { run(c.args) })
		}
		for _, w := range c.want {
			if !bytes.Contains(out, []byte(w)) {
				t.Errorf("%v printed no %q:\n%s", c.args, w, out)
			}
		}
		if slices.Contains(c.args, "-json") {
			if doc, err := scenario.DecodeResultDoc(out); err != nil || doc.Trace == nil {
				t.Errorf("%v printed no result document with a trace (%v)", c.args, err)
			}
		}
	}
	rows := func(name string) int {
		b, err := os.ReadFile(csv(name))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(b, []byte("\n")) - 1 // the header line
	}
	if n, n8 := rows("qocc.csv"), rows("qocc8.csv"); n < 8 || n8 != (n+7)/8 {
		t.Errorf("the stride-8 trace has %d data rows, want ⌈%d/8⌉", n8, n)
	}
}
