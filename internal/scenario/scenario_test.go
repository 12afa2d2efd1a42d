package scenario

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"occamy/internal/experiments"
	"occamy/internal/linkfault"
	"occamy/internal/sim"
)

func render(tabs []*experiments.Table) string {
	var buf bytes.Buffer
	for _, t := range tabs {
		t.Fprint(&buf)
	}
	return buf.String()
}

// mustDoc is res.Doc(withTrace), failing the test on error.
func mustDoc(t testing.TB, res *Result, withTrace bool) *ResultDoc {
	t.Helper()
	doc, err := res.Doc(withTrace)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// Every registered scenario must run at test scale with sane output:
// traffic actually delivered, the packet-accounting books closed, and a
// non-empty table. This is the smoke gate new catalog entries buy into
// by calling Register. Figure entries only build and validate their
// quick grids (the golden tests run them at reduced size); the run-free
// table1 and the 2ms fig3 also go through Tables to cover the wiring.
func TestCatalogSmoke(t *testing.T) {
	t.Parallel()
	names := Names()
	if len(names) < 8 {
		t.Fatalf("catalog has %d scenarios, want >= 8", len(names))
	}
	figures := map[string]func(Scale) Figure{}
	for _, fig := range paperFigures {
		figures[fig.id] = fig.at
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, ok := Get(name)
			if !ok {
				t.Fatalf("Get(%q) failed", name)
			}
			if sc.Tables != nil {
				at, ok := figures[name]
				if !ok {
					t.Fatal("figure entry missing from paperFigures")
				}
				for i, s := range at(ScaleQuick).Specs {
					if err := s.WithDefaults().Validate(); err != nil {
						t.Errorf("spec %d: %v", i, err)
					}
				}
				if name != "table1" && name != "fig3" {
					return
				}
				tabs := sc.Tables(ScaleQuick)
				if len(tabs) == 0 {
					t.Fatal("figure scenario produced no tables")
				}
				for _, tab := range tabs {
					if len(tab.Rows) == 0 {
						t.Fatalf("figure table %s has no rows", tab.ID)
					}
				}
				return
			}
			spec := sc.SpecAt(ScaleQuick)
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.DeliveredBytes() == 0 {
				t.Error("no bytes delivered")
			}
			if drift := res.AccountingDrift(); drift != 0 {
				t.Errorf("packet accounting drift %d (rx != tx+drops+expelled+buffered)", drift)
			}
			if gate := spec.gatingIncast(); gate >= 0 && res.Workloads[gate].Done == 0 {
				t.Error("gating incast completed no queries")
			}
			tab := res.Table()
			if len(tab.Rows) != 1 || len(tab.Columns) < 3 {
				t.Errorf("summary table malformed: %d rows, %d cols", len(tab.Rows), len(tab.Columns))
			}
			for _, cell := range tab.Rows[0] {
				if cell == "" {
					t.Error("empty summary cell")
				}
			}
		})
	}
}

// Identical specs must give byte-identical tables: scenarios inherit the
// engine's determinism guarantees.
func TestScenarioDeterministic(t *testing.T) {
	t.Parallel()
	sc, _ := Get("leafspine-demo")
	run := func() string {
		tabs, err := sc.RunTables(ScaleQuick)
		if err != nil {
			t.Fatal(err)
		}
		return render(tabs)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("scenario differs across identical runs:\n--- first\n%s--- second\n%s", a, b)
	}
}

// Field sweeps: set-by-path plus cross-product expansion, and the sweep
// table is invariant to the RunGrid parallelism level.
func TestSweepAcrossPolicies(t *testing.T) {
	sc, _ := Get("burst-absorb")
	axes := []SweepAxis{{Path: "policy.kind", Values: []string{"dt", "occamy"}}}
	defer experiments.SetParallelism(0)
	experiments.SetParallelism(1)
	serialTab, err := RunSweep(sc.SpecAt(ScaleQuick), axes)
	if err != nil {
		t.Fatal(err)
	}
	experiments.SetParallelism(4)
	parTab, err := RunSweep(sc.SpecAt(ScaleQuick), axes)
	if err != nil {
		t.Fatal(err)
	}
	a, b := render([]*experiments.Table{serialTab}), render([]*experiments.Table{parTab})
	if a != b {
		t.Fatalf("sweep differs between -j 1 and -j 4:\n%s\nvs\n%s", a, b)
	}
	if len(serialTab.Rows) != 2 {
		t.Fatalf("sweep rows = %d, want 2", len(serialTab.Rows))
	}
	// The burst-absorb scenario is sized so preemption matters: DT must
	// lose burst packets, Occamy must lose strictly fewer.
	idx := -1
	for i, c := range serialTab.Columns {
		if c == "burst_loss" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("no burst_loss column in %v", serialTab.Columns)
	}
	dtLoss, occLoss := serialTab.Rows[0][idx], serialTab.Rows[1][idx]
	if dtLoss == "0" {
		t.Errorf("DT lost no burst packets; scenario not stressing the buffer")
	}
	if occLoss >= dtLoss {
		t.Errorf("Occamy burst loss %s not better than DT %s", occLoss, dtLoss)
	}
}

// Degraded ports must actually slow the configured hosts down: the same
// permutation load on a degraded fabric delivers less than on a healthy
// one within the same horizon.
func TestDegradedPortsBite(t *testing.T) {
	t.Parallel()
	base := Spec{
		Name:  "degrade-check",
		Title: "degrade check",
		Topology: Topology{
			Kind: LeafSpine, LinkBps: 10e9,
		},
		Policy: Policy{Kind: "dt", Alpha: 1},
		Workloads: []Workload{
			{Kind: WLPermutation, FlowSize: 200_000, Load: 0.8},
		},
		Duration: 5 * 1000 * 1000, // 5ms
	}
	healthy := MustRun(base)
	degraded := base
	degraded.Topology.DegradedPorts = map[int]float64{0: 0.1, 1: 0.1, 4: 0.1}
	slow := MustRun(degraded)
	if slow.DeliveredBytes() >= healthy.DeliveredBytes() {
		t.Errorf("degraded fabric delivered %d >= healthy %d", slow.DeliveredBytes(), healthy.DeliveredBytes())
	}
}

// Stateful policies must get per-switch instances on a fabric (a shared
// TDT/EDT map across switches would corrupt state silently).
func TestStatefulPolicyOnFabric(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Name:  "tdt-fabric",
		Title: "tdt on fabric",
		Topology: Topology{
			Kind: LeafSpine, LinkBps: 10e9,
		},
		Policy: Policy{Kind: "tdt", Alpha: 1},
		Workloads: []Workload{
			{Kind: WLBackground, Load: 0.5},
		},
		Duration: 5 * 1000 * 1000,
	}
	res := MustRun(spec)
	if res.DeliveredBytes() == 0 {
		t.Error("no delivery under TDT fabric")
	}
	if drift := res.AccountingDrift(); drift != 0 {
		t.Errorf("accounting drift %d", drift)
	}
}

// TestHalfSpecifiedPrioAlpha: setting only AlphaHP (or only AlphaLP)
// must leave the other classes on the base α — a zero entry in the
// per-priority map would read as threshold 0 and starve that class.
func TestHalfSpecifiedPrioAlpha(t *testing.T) {
	t.Parallel()
	for _, classes := range []int{2, 4} {
		p, _, err := (Policy{Kind: "dt", Alpha: 2, AlphaHP: 8}).Build(classes)
		if err != nil {
			t.Fatal(err)
		}
		st := &probeState{cap: 100_000, n: classes}
		for c := 1; c < classes; c++ {
			hp := p.Threshold(st, 0)
			lp := p.Threshold(probeAt{st, c}, c)
			if lp == 0 {
				t.Fatalf("classes=%d: class %d starved (threshold 0) by half-specified AlphaHP", classes, c)
			}
			if hp <= lp {
				t.Fatalf("classes=%d: AlphaHP=8 not applied: hp threshold %d <= lp %d", classes, c, hp)
			}
		}
	}
	// And AlphaLP must cover every low class when classes > 2.
	p, _, err := (Policy{Kind: "dt", Alpha: 2, AlphaLP: 1}).Build(4)
	if err != nil {
		t.Fatal(err)
	}
	st := &probeState{cap: 100_000, n: 4}
	ref := p.Threshold(probeAt{st, 1}, 1)
	for c := 2; c < 4; c++ {
		if got := p.Threshold(probeAt{st, c}, c); got != ref {
			t.Fatalf("class %d threshold %d != class 1's %d; AlphaLP not applied uniformly", c, got, ref)
		}
	}
}

// On/off phase windows are half-open: a round interval that divides
// OnTime exactly must not fire a round inside the off window (the
// generators' inclusive `until` is pulled back 1ns by startRounds).
func TestPhaseBoundaryExcluded(t *testing.T) {
	t.Parallel()
	// FlowSize 1MB at load 0.8 on 10G → round interval exactly 1ms.
	spec := Spec{
		Name:     "phase-edge",
		Topology: Topology{Kind: SingleSwitch, Hosts: 4, LinkBps: 10e9},
		Policy:   Policy{Kind: "dt", Alpha: 1},
		Workloads: []Workload{{
			Kind: WLPermutation, FlowSize: 1_000_000, Load: 0.8,
			OnTime: 2 * sim.Millisecond, OffTime: 8 * sim.Millisecond,
		}},
		Duration: 10 * sim.Millisecond,
	}
	res := MustRun(spec)
	// One phase [0, 2ms): rounds at 0 and 1ms only — a third at exactly
	// 2ms would sit in the off window.
	if got := res.Workloads[0].Launched; got != 2 {
		t.Fatalf("launched %d rounds in a 2ms on-phase with a 1ms interval, want 2", got)
	}
}

// probeState is an empty-buffer bm.State where queue q has priority q.
type probeState struct{ cap, n int }

func (s *probeState) Capacity() int             { return s.cap }
func (s *probeState) Occupancy() int            { return 0 }
func (s *probeState) NumQueues() int            { return s.n }
func (s *probeState) QueueLen(int) int          { return 0 }
func (s *probeState) QueuePriority(q int) int   { return q }
func (s *probeState) DequeueRate(int) float64   { return 1 }
func (s *probeState) BackloggedInClass(int) int { return 0 }

// probeAt reuses probeState but reports the wrapped priority for any
// queried queue (so Threshold(q) sees priority class prio).
type probeAt struct {
	*probeState
	prio int
}

func (s probeAt) QueuePriority(int) int { return s.prio }

func TestValidateRejectsNonsense(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name string
		mut  func(*Spec)
	}{
		{"no workloads", func(s *Spec) { s.Workloads = nil }},
		{"bad kind", func(s *Spec) { s.Workloads = []Workload{{Kind: "nope"}} }},
		{"bad policy", func(s *Spec) { s.Policy.Kind = "nope" }},
		{"bad sched", func(s *Spec) { s.Topology.Scheduler = "wfq" }},
		{"raw on fabric", func(s *Spec) {
			s.Topology.Kind = LeafSpine
			s.Workloads = []Workload{{Kind: WLCBR, RateBps: 1e9}}
		}},
		{"mixed raw+transport", func(s *Spec) {
			s.Workloads = []Workload{{Kind: WLCBR, RateBps: 1e9}, {Kind: WLBackground, Load: 0.5}}
		}},
		{"zero load", func(s *Spec) { s.Workloads = []Workload{{Kind: WLBackground}} }},
		{"incast client out of range", func(s *Spec) {
			s.Workloads = []Workload{{Kind: WLIncast, QuerySize: 1000, Client: 100}}
		}},
		{"incast client below -1", func(s *Spec) {
			s.Workloads = []Workload{{Kind: WLIncast, QuerySize: 1000, Client: -2}}
		}},
		{"longlived client out of range", func(s *Spec) {
			s.Workloads = []Workload{{Kind: WLLongLived, Count: 1, Client: 9}}
		}},
		{"raw dst_port out of range", func(s *Spec) {
			s.Workloads = []Workload{{Kind: WLCBR, RateBps: 1e9, DstPort: 8}}
		}},
		{"negative hosts", func(s *Spec) { s.Topology.Hosts = -4 }},
		{"more classes than a port's backlog mask holds", func(s *Spec) { s.Topology.Classes = 65 }},
		{"negative duration", func(s *Spec) { s.Duration = -sim.Millisecond }},
		{"negative warmup", func(s *Spec) { s.Warmup = -sim.Millisecond }},
		{"negative burst At", func(s *Spec) {
			s.Workloads = []Workload{{Kind: WLBurst, RateBps: 1e9, Bytes: 1000, At: -sim.Millisecond}}
		}},
		{"negative incast fanout", func(s *Spec) {
			s.Workloads = []Workload{{Kind: WLIncast, QuerySize: 1000, Fanout: -5}}
		}},
		{"negative incast interval", func(s *Spec) {
			s.Workloads = []Workload{{Kind: WLIncast, QuerySize: 1000, Interval: -10 * sim.Microsecond}}
		}},
		{"negative priority", func(s *Spec) {
			s.Workloads = []Workload{{Kind: WLBackground, Load: 0.5, Priority: -1}}
		}},
		{"fault loss prob over 1", func(s *Spec) {
			s.Faults = &Faults{All: &linkfault.Profile{LossProb: 1.5}}
		}},
		{"fault negative dup prob", func(s *Spec) {
			s.Faults = &Faults{HostLeaf: &linkfault.Profile{DupProb: -0.1}}
		}},
		{"fault GE bad-loss prob over 1", func(s *Spec) {
			s.Faults = &Faults{LeafSpine: &linkfault.Profile{GEBadLossProb: 2, GEGoodToBad: 0.01, GEBadToGood: 0.1}}
		}},
		{"fault reorder without hold", func(s *Spec) {
			s.Faults = &Faults{All: &linkfault.Profile{ReorderProb: 0.1}}
		}},
		{"fault negative reorder hold", func(s *Spec) {
			s.Faults = &Faults{All: &linkfault.Profile{ReorderProb: 0.1, ReorderHold: -sim.Microsecond}}
		}},
		{"fault negative jitter", func(s *Spec) {
			s.Faults = &Faults{All: &linkfault.Profile{JitterMax: -sim.Microsecond}}
		}},
		{"faults on raw injection", func(s *Spec) {
			s.Workloads = []Workload{{Kind: WLCBR, RateBps: 1e9}}
			s.Faults = &Faults{All: &linkfault.Profile{LossProb: 0.01}}
		}},
	} {
		spec := Spec{
			Name:      "v",
			Topology:  Topology{Kind: SingleSwitch},
			Workloads: []Workload{{Kind: WLBackground, Load: 0.5}},
		}
		c.mut(&spec)
		if err := spec.WithDefaults().Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", c.name)
		} else if !strings.Contains(err.Error(), "scenario") {
			t.Errorf("%s: unhelpful error %v", c.name, err)
		}
	}
}

// Selecting a drop_*_util_* column switches on the Fig 7 drop probe and
// the memory-bandwidth meter behind it; both only watch. Every other
// column of the run reads the same with the probe on as with it off.
func TestDropUtilProbeObservesOnly(t *testing.T) {
	t.Parallel()
	var shared []string
	for _, m := range MetricNames() {
		if !strings.HasPrefix(m, "drop_") {
			shared = append(shared, m)
		}
	}
	for _, name := range []string{"quickstart", "buffer-choking", "leafspine-demo"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("no scenario %q", name)
		}
		off := sc.SpecAt(ScaleQuick)
		off.Metrics = []string{"policy", "drops"}
		on := off
		on.Metrics = []string{"policy", "drops", "drop_buf_util_p50", "drop_membw_util_p99"}
		rOff, rOn := MustRun(off), MustRun(on)
		if len(rOff.DropMemBWUtil) != 0 || len(rOn.DropMemBWUtil) == 0 {
			t.Fatalf("%s: %d samples with the probe off, %d with it on; want none and some",
				name, len(rOff.DropMemBWUtil), len(rOn.DropMemBWUtil))
		}
		if got, want := rOn.Row(shared), rOff.Row(shared); !slices.Equal(got, want) {
			for i := range shared {
				if got[i] != want[i] {
					t.Errorf("%s: column %s = %s with the probe on, %s with it off", name, shared[i], got[i], want[i])
				}
			}
		}
	}
}
