package scenario

import (
	"strings"
	"testing"

	"occamy/internal/experiments"
	"occamy/internal/linkfault"
	"occamy/internal/sim"
)

// Transport robustness under injected link faults
//
// The property the linkfault layer must certify: a gated incast spec
// COMPLETES — every issued query fully answered — at i.i.d. loss rates
// up to 10%, with exact packet accounting at every layer (per-link
// conservation, link↔switch cross-checks, zero switch drift). A
// transport that livelocks on duplicates, reordering, or stale ACKs
// fails the Done==Launched gate; an accounting leak anywhere in the
// chain fails the conservation checks.

// lossSpec is a gated incast through a single lossy ToR.
func lossSpec(loss float64) Spec {
	return Spec{
		Name:  "loss-sweep",
		Title: "loss sweep probe",
		Topology: Topology{
			Kind: SingleSwitch, Hosts: 8, LinkBps: 10e9,
		},
		Policy: Policy{Kind: "dt", Alpha: 2},
		Faults: &Faults{
			HostLeaf: &linkfault.Profile{LossProb: loss},
		},
		Workloads: []Workload{
			{Kind: WLIncast, Client: 0, QuerySize: 100_000, Queries: 6},
		},
		Duration: 40 * sim.Millisecond,
		Seed:     11,
	}
}

// checkLinkConservation asserts, per faulted link, that every packet
// offered (plus the duplicates the link minted) is accounted for:
// delivered, dropped, or still held/jittered in flight.
func checkLinkConservation(t *testing.T, res *Result) {
	t.Helper()
	for _, l := range res.FaultLinks {
		inflight := l.InFlight()
		if inflight < 0 {
			t.Errorf("link %s: negative in-flight %d (offered %d + dup %d, delivered %d, dropped %d)",
				l.Name, inflight, l.Offered, l.Duplicated, l.Delivered, l.Dropped)
		}
		if l.Offered+l.Duplicated != l.Delivered+l.Dropped+inflight {
			t.Errorf("link %s: conservation broken: offered %d + dup %d != delivered %d + dropped %d + inflight %d",
				l.Name, l.Offered, l.Duplicated, l.Delivered, l.Dropped, inflight)
		}
	}
}

// checkCrossLayerAccounting ties the link counters to the switch
// counters exactly: on a single-switch topology every packet the switch
// receives arrived through an up link's Delivered, and every packet it
// transmits was Offered to a down link.
func checkCrossLayerAccounting(t *testing.T, res *Result) {
	t.Helper()
	var upDelivered, downOffered int64
	for _, l := range res.FaultLinks {
		switch {
		case strings.HasSuffix(l.Name, "->sw0"):
			upDelivered += l.Delivered
		case strings.HasPrefix(l.Name, "sw0->"):
			downOffered += l.Offered
		default:
			t.Errorf("unexpected link name %q on single-switch topology", l.Name)
		}
	}
	if upDelivered != res.Total.RxPackets {
		t.Errorf("up-link delivered %d != switch rx %d", upDelivered, res.Total.RxPackets)
	}
	if downOffered != res.Total.TxPackets {
		t.Errorf("down-link offered %d != switch tx %d", downOffered, res.Total.TxPackets)
	}
}

// TestLossSweepCompletes: the headline robustness property. At 0.1%,
// 1%, and 10% i.i.d. loss every issued query completes, the switch
// books balance to zero, and the link/switch packet budgets agree
// exactly.
func TestLossSweepCompletes(t *testing.T) {
	t.Parallel()
	for _, loss := range []float64{0.001, 0.01, 0.1} {
		spec := lossSpec(loss)
		budget := int64(spec.Workloads[0].Queries)
		res := MustRun(spec)
		ws := res.Workloads[0]
		if ws.Launched == 0 {
			t.Fatalf("loss %v: no queries launched", loss)
		}
		// Queries issue on an interval until the horizon and the run ends
		// once the budget is answered, so late-issued queries may still be
		// in flight at stop; survival means the budget completed before
		// the straggler deadline.
		if ws.Done < budget {
			t.Errorf("loss %v: %d of %d budgeted queries completed — transport did not survive",
				loss, ws.Done, budget)
		}
		if ws.Done > ws.Launched {
			t.Errorf("loss %v: done %d exceeds launched %d", loss, ws.Done, ws.Launched)
		}
		if ws.Timeouts < 0 {
			t.Errorf("loss %v: negative timeout count %d", loss, ws.Timeouts)
		}
		if res.DeliveredBytes() == 0 {
			t.Errorf("loss %v: nothing delivered", loss)
		}
		if drift := res.AccountingDrift(); drift != 0 {
			t.Errorf("loss %v: switch accounting drift %d", loss, drift)
		}
		if len(res.FaultLinks) == 0 {
			t.Fatalf("loss %v: no fault telemetry recorded", loss)
		}
		tot := res.LinkFaultTotals()
		if loss >= 0.01 && tot.Dropped == 0 {
			t.Errorf("loss %v: injector dropped nothing over %d offered packets", loss, tot.Offered)
		}
		checkLinkConservation(t, res)
		checkCrossLayerAccounting(t, res)
	}
}

// TestDuplicationAndReorderComplete: the same completion + accounting
// gate for the non-loss fault modes, straight from the catalog entries
// that exercise them.
func TestDuplicationAndReorderComplete(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"duplicate-storm", "jittery-allreduce"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		res := MustRun(sc.SpecAt(ScaleQuick))
		if res.DeliveredBytes() == 0 {
			t.Errorf("%s: nothing delivered", name)
		}
		if drift := res.AccountingDrift(); drift != 0 {
			t.Errorf("%s: switch accounting drift %d", name, drift)
		}
		tot := res.LinkFaultTotals()
		if tot.Offered == 0 {
			t.Errorf("%s: fault plan saw no traffic", name)
		}
		switch name {
		case "duplicate-storm":
			if tot.Duplicated == 0 {
				t.Errorf("%s: no duplicates minted", name)
			}
			if tot.Dropped != 0 {
				t.Errorf("%s: %d drops on a zero-loss profile", name, tot.Dropped)
			}
			// Gated: queries must complete despite the duplicate storm.
			for _, ws := range res.Workloads {
				if ws.Kind == WLIncast && ws.Done == 0 {
					t.Errorf("%s: no queries completed (%d launched)", name, ws.Launched)
				}
			}
		case "jittery-allreduce":
			if tot.Held == 0 {
				t.Errorf("%s: reordering profile held nothing", name)
			}
		}
		checkLinkConservation(t, res)
	}
}

// TestFaultTableBalances: the rendered fault table carries a total row
// and per-row conservation (the run has drained, so in-flight is the
// only slack and must be zero or show up as offered-minus-delivered).
func TestFaultTableBalances(t *testing.T) {
	t.Parallel()
	tab := mustDoc(t, MustRun(lossSpec(0.02)), false).FaultTable()
	if len(tab.Rows) < 2 {
		t.Fatalf("fault table has %d rows, want per-link rows plus total", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "total" {
		t.Errorf("last fault-table row is %q, want total", last[0])
	}
	if got, want := len(tab.Columns), 8; got != want {
		t.Errorf("fault table has %d columns, want %d", got, want)
	}
}

// TestFaultColumnsInSummary: specs with a faults block grow the
// link_drops/link_dups/link_reorders summary columns.
func TestFaultColumnsInSummary(t *testing.T) {
	t.Parallel()
	res := MustRun(lossSpec(0.05))
	tab := Summarize("x", "x", []string{"p"}, []*Result{res}, metricsOf(res.Spec))
	header := strings.Join(tab.Columns, " ")
	for _, col := range []string{"link_drops", "link_dups", "link_reorders"} {
		if !strings.Contains(header, col) {
			t.Errorf("summary columns %v missing %s", tab.Columns, col)
		}
	}
}

// TestFlakyTorIncastDeterministic: same spec, same seed ⇒ byte-identical
// tables AND byte-identical exported result documents, fault counters
// included.
func TestFlakyTorIncastDeterministic(t *testing.T) {
	t.Parallel()
	sc, ok := Get("flaky-tor-incast")
	if !ok {
		t.Fatal("flaky-tor-incast not registered")
	}
	spec := sc.SpecAt(ScaleQuick)
	a := MustRun(spec)
	b := MustRun(spec)
	da, db := mustDoc(t, a, false), mustDoc(t, b, false)
	ra := render([]*Table{a.Table(), da.TailTable(), da.PerSwitchTable(), da.FaultTable()})
	rb := render([]*Table{b.Table(), db.TailTable(), db.PerSwitchTable(), db.FaultTable()})
	if ra != rb {
		t.Errorf("same spec, different tables:\n--- first\n%s--- second\n%s", ra, rb)
	}
	ja, err := a.EncodeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.EncodeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Error("same spec, different exported result documents")
	}
}

// TestIncastTimeoutsFromRetiredFlows pins the RTO counts the incast of
// flaky-tor-incast and buffer-choking reports, as read when every flow
// kept its sender to the end of the run. A flow now retires when its last
// byte is ACKed, and the count comes from its tombstone, so a count lost
// or doubled at retirement shows here.
func TestIncastTimeoutsFromRetiredFlows(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name, policy string
		scale        Scale
		want         int64
	}{
		{"flaky-tor-incast", "", ScaleQuick, 4},
		{"flaky-tor-incast", "", ScaleFull, 14},
		{"buffer-choking", "dt", ScaleQuick, 6},
		{"buffer-choking", "dt", ScaleFull, 11},
		{"buffer-choking", "pushout", ScaleQuick, 14},
		{"buffer-choking", "pushout", ScaleFull, 11},
	} {
		sc, _ := Get(c.name)
		spec := sc.SpecAt(c.scale)
		if c.policy != "" {
			spec.Policy.Kind = c.policy
		}
		if got := MustRun(spec).incastStats().Timeouts; got != c.want {
			t.Errorf("%s@%s %s: incast reports %d RTOs, want %d", c.name, c.scale, c.policy, got, c.want)
		}
	}
}

// TestFaultSweepParallelismInvariant: a sweep over a fault field must
// produce the identical summary table at -j 1 and -j 4 — per-link RNG
// streams are seeded by link name, never by wiring or scheduling order.
func TestFaultSweepParallelismInvariant(t *testing.T) {
	sc, ok := Get("flaky-tor-incast")
	if !ok {
		t.Fatal("flaky-tor-incast not registered")
	}
	spec := sc.SpecAt(ScaleQuick)
	axes := []SweepAxis{{Path: "faults.host-leaf.loss_prob", Values: []string{"0.005", "0.02"}}}
	defer experiments.SetParallelism(0)
	experiments.SetParallelism(1)
	seq, err := RunSweep(spec, axes)
	if err != nil {
		t.Fatal(err)
	}
	experiments.SetParallelism(4)
	par, err := RunSweep(spec, axes)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render([]*Table{seq}), render([]*Table{par}); a != b {
		t.Errorf("sweep output depends on -j:\n--- j=1\n%s--- j=4\n%s", a, b)
	}
}

// TestFaultSweepAllocatesBlock: sweeping a fault path over a spec whose
// base has no faults block allocates it per grid point — and a nonzero
// loss point must actually drop packets while the zero point stays
// ideal.
func TestFaultSweepAllocatesBlock(t *testing.T) {
	t.Parallel()
	base := lossSpec(0)
	base.Faults = nil
	specs, _, err := Expand(base, []SweepAxis{{Path: "faults.host-leaf.loss_prob", Values: []string{"0", "0.05"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("expanded to %d specs, want 2", len(specs))
	}
	if base.Faults != nil {
		t.Error("Expand mutated the base spec's faults block")
	}
	clean := MustRun(specs[0])
	lossy := MustRun(specs[1])
	if tot := clean.LinkFaultTotals(); tot.Dropped != 0 {
		t.Errorf("loss_prob=0 point dropped %d packets", tot.Dropped)
	}
	if tot := lossy.LinkFaultTotals(); tot.Dropped == 0 {
		t.Error("loss_prob=0.05 point dropped nothing")
	}
}
