package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"occamy/internal/linkfault"
	"occamy/internal/sim"
)

// setOne applies one path=value override to s, the way -set does.
func setOne(s Spec, path, val string) (Spec, error) {
	specs, _, err := Expand(s, []SweepAxis{{Path: path, Values: []string{val}}})
	if err != nil {
		return Spec{}, err
	}
	return specs[0], nil
}

// cloneSpec deep-copies everything a direct assignment may write
// through, so a test row never edits a registered catalog entry.
func cloneSpec(s Spec) Spec {
	s.Workloads = slices.Clone(s.Workloads)
	s.Metrics = slices.Clone(s.Metrics)
	s.Topology.DegradedPorts = maps.Clone(s.Topology.DegradedPorts)
	if s.Faults != nil {
		f := *s.Faults
		for _, p := range []**linkfault.Profile{&f.All, &f.HostLeaf, &f.LeafSpine} {
			if *p != nil {
				cp := **p
				*p = &cp
			}
		}
		s.Faults = &f
	}
	return s
}

// TestSetFieldPaths is a differential table: each row sets one path to
// one value and makes the same change by direct Go assignment, and the
// two specs must fingerprint equal. The rows cover every path and value
// the tests, CI, examples, docs, the load generator and the benchmark
// harness use.
func TestSetFieldPaths(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		base, path, val string
		assign          func(*Spec)
	}{
		{"leafspine-demo", "policy.kind", "abm", func(s *Spec) { s.Policy.Kind = "abm" }},
		{"leafspine-demo", "policy.kind", "pushout", func(s *Spec) { s.Policy.Kind = "pushout" }},
		{"quickstart", "policy.kind", "dt", func(s *Spec) { s.Policy.Kind = "dt" }},
		{"buffer-choking", "policy.kind", "occamy", func(s *Spec) { s.Policy.Kind = "occamy" }},
		{"leafspine-demo", "policy.alpha", "2", func(s *Spec) { s.Policy.Alpha = 2 }},
		{"leafspine-demo", "policy.alpha", "0.5", func(s *Spec) { s.Policy.Alpha = 0.5 }},
		{"buffer-choking", "policy.alpha", "8", func(s *Spec) { s.Policy.Alpha = 8 }},
		{"leafspine-demo", "seed", "7", func(s *Spec) { s.Seed = 7 }},
		// A seed past 2^53 must not round through float64.
		{"quickstart", "seed", "18446744073709551557", func(s *Spec) { s.Seed = 18446744073709551557 }},
		{"leafspine-demo", "topology.hostsperleaf", "8", func(s *Spec) { s.Topology.HostsPerLeaf = 8 }},
		{"leafspine-demo", "workloads[0].load", "0.4", func(s *Spec) { s.Workloads[0].Load = 0.4 }},
		{"leafspine-demo", "workloads[1].interval", "3ms", func(s *Spec) { s.Workloads[1].Interval = 3 * sim.Millisecond }},
		{"burst-absorb", "workloads[1].bytes", "300000", func(s *Spec) { s.Workloads[1].Bytes = 300000 }},
		{"burst-absorb", "workloads[1].bytes", "800000", func(s *Spec) { s.Workloads[1].Bytes = 800000 }},
		{"incast-storm-256", "workloads[1].fanout", "512", func(s *Spec) { s.Workloads[1].Fanout = 512 }},
		// Fault paths allocate the optional blocks a base spec leaves nil
		// and accept the JSON spellings (dashes, underscores).
		{"leafspine-demo", "faults.host-leaf.loss_prob", "0.05", func(s *Spec) {
			s.Faults = &Faults{HostLeaf: &linkfault.Profile{LossProb: 0.05}}
		}},
		{"leafspine-demo", "faults.host-leaf.loss_prob", "0", func(s *Spec) {
			s.Faults = &Faults{HostLeaf: &linkfault.Profile{}}
		}},
		{"flaky-tor-incast", "faults.host-leaf.loss_prob", "0.02", func(s *Spec) { s.Faults.HostLeaf.LossProb = 0.02 }},
		{"leafspine-demo", "faults.all.jitter_max", "10us", func(s *Spec) {
			s.Faults = &Faults{All: &linkfault.Profile{JitterMax: 10 * sim.Microsecond}}
		}},
		{"leafspine-demo", "faults.leaf-spine.ge_bad_loss_prob", "0.25", func(s *Spec) {
			s.Faults = &Faults{LeafSpine: &linkfault.Profile{GEBadLossProb: 0.25}}
		}},
		// A bare word is a string wherever the schema takes one, and a
		// JSON array is one value.
		{"quickstart", "topology.kind", "leaf-spine", func(s *Spec) { s.Topology.Kind = LeafSpine }},
		{"quickstart", "metrics", `["drops"]`, func(s *Spec) { s.Metrics = []string{"drops"} }},
		{"burst-absorb", "metrics", `["policy","drops","expelled"]`, func(s *Spec) {
			s.Metrics = []string{"policy", "drops", "expelled"}
		}},
		{"degraded-leafspine", "topology.degraded_ports.5", "0.75", func(s *Spec) { s.Topology.DegradedPorts[5] = 0.75 }},
	} {
		sc, ok := Get(c.base)
		if !ok {
			t.Fatalf("%s not registered", c.base)
		}
		got, err := setOne(sc.Spec, c.path, c.val)
		if err != nil {
			t.Errorf("%s: set %s=%s: %v", c.base, c.path, c.val, err)
			continue
		}
		want := cloneSpec(sc.Spec)
		c.assign(&want)
		gotFP, err := got.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		wantFP, err := want.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if gotFP != wantFP {
			a, _ := got.Marshal()
			b, _ := want.Marshal()
			t.Errorf("%s: set %s=%s differs from direct assignment:\n%s\nvs\n%s", c.base, c.path, c.val, a, b)
		}
	}
	// Every refusal names the path it refuses.
	sc, _ := Get("leafspine-demo")
	for _, c := range []struct{ path, val string }{
		{"no.such.field", "1"},
		{"policy.alhpa", "2"},
		{"policy.alpha.x", "2"},
		{"workloads[9].load", "1"},
		{"workloads[x].load", "1"},
		{"workloads.0.load", "0.5"},
		{"policy.alpha", "abc"},
		{"policy.kind", "3"},
		{"topology.kind", "1"},
		{"metrics", "drops"},
		{"workloads[1].interval", "3parsecs"},
		{"topology.buffer_bytes", "2e6"},
	} {
		_, err := setOne(sc.Spec, c.path, c.val)
		if err == nil {
			t.Errorf("set %s=%s accepted", c.path, c.val)
		} else if !strings.Contains(err.Error(), c.path) {
			t.Errorf("set %s=%s: error %q does not name the path", c.path, c.val, err)
		}
	}
	if _, err := setOne(sc.Spec, "workloads.0.load", "0.5"); err == nil || !strings.Contains(err.Error(), "workloads[0]") {
		t.Errorf("set workloads.0.load: error %v does not show the index syntax", err)
	}
}

// TestSetOwnValueIsIdentity: for every exportable catalog entry, setting
// any leaf path of its exported JSON to the value exported there leaves
// the fingerprint unchanged — as raw JSON, and for a string also as the
// bare word a command line would carry. Each entry is checked at every
// scale, and once more with a seed past 2^53 that a float64 would round.
func TestSetOwnValueIsIdentity(t *testing.T) {
	t.Parallel()
	for _, name := range Names() {
		sc, _ := Get(name)
		if sc.Tables != nil {
			continue
		}
		bigSeed := sc.SpecAt(ScaleQuick)
		bigSeed.Seed = 18446744073709551557
		variants := map[string]Spec{
			"quick": sc.SpecAt(ScaleQuick), "full": sc.SpecAt(ScaleFull),
			"paper": sc.SpecAt(ScalePaper), "big-seed": bigSeed,
		}
		for scale, spec := range variants {
			want, err := spec.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			data, err := spec.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.UseNumber()
			var tree any
			if err := dec.Decode(&tree); err != nil {
				t.Fatal(err)
			}
			check := func(path, val string) {
				got, err := setOne(spec, path, val)
				if err != nil {
					t.Errorf("%s/%s: set %s=%s: %v", name, scale, path, val, err)
					return
				}
				if fp, _ := got.Fingerprint(); fp != want {
					t.Errorf("%s/%s: set %s=%s changed the fingerprint", name, scale, path, val)
				}
			}
			var walk func(path string, node any)
			walk = func(path string, node any) {
				switch n := node.(type) {
				case map[string]any:
					for k, v := range n {
						walk(strings.TrimPrefix(path+"."+k, "."), v)
					}
				case []any:
					for i, v := range n {
						walk(fmt.Sprintf("%s[%d]", path, i), v)
					}
				default:
					raw, err := json.Marshal(n)
					if err != nil {
						t.Fatal(err)
					}
					check(path, string(raw))
					if s, ok := n.(string); ok && !json.Valid([]byte(s)) {
						check(path, s)
					}
				}
			}
			walk("", tree)
		}
	}
}

// BenchmarkExpand expands a 2×2 grid of quickstart, the shape of a
// fleet sweep (policy kind × alpha).
func BenchmarkExpand(b *testing.B) {
	sc, _ := Get("quickstart")
	axes := []SweepAxis{
		{Path: "policy.kind", Values: []string{"occamy", "dt"}},
		{Path: "policy.alpha", Values: []string{"1", "4"}},
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := Expand(sc.Spec, axes); err != nil {
			b.Fatal(err)
		}
	}
}
