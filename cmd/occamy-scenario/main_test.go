package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
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
