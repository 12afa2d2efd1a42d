package scenario

import (
	"strconv"
	"strings"
	"testing"

	"occamy/internal/experiments"
	"occamy/internal/sim"
)

// Figure tests
//
// Shape, determinism and servability tests for the paper's figures
// (figures_*.go); their golden tables are in golden_test.go. Tests that
// do not touch the process-wide RunGrid parallelism run under
// t.Parallel.

// oneTable runs a single-table figure.
func oneTable(t *testing.T, f Figure) *Table {
	t.Helper()
	tabs := f.Run()
	if len(tabs) != 1 {
		t.Fatalf("figure produced %d tables, want 1", len(tabs))
	}
	return tabs[0]
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// meanQCT runs one spec and returns its mean query completion time.
func meanQCT(t *testing.T, s Spec) sim.Duration {
	t.Helper()
	q := MustRun(s).incastStats()
	if q.Col.Count() == 0 {
		t.Fatal("queries did not complete")
	}
	return q.Col.MeanFCT()
}

func TestTable1Format(t *testing.T) {
	t.Parallel()
	sc, ok := Get("table1")
	if !ok {
		t.Fatal("table1 not registered")
	}
	tabs := sc.Tables(ScaleQuick)
	if len(tabs) != 3 { // cost, Maximum Finder, pipeline
		t.Fatalf("tables = %d, want 3", len(tabs))
	}
	if len(tabs[0].Rows) != 4 { // selector, arbiter, executor, total
		t.Fatalf("cost rows = %d, want 4", len(tabs[0].Rows))
	}
	out := render(tabs)
	for _, want := range []string{"Selector", "Arbiter", "Executor", "Total", "LUTs", "comparators", "expulsion_Mpps"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3HealthyVsAnomalous(t *testing.T) {
	t.Parallel()
	tab := oneTable(t, Fig3DTBehavior())
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	healthyDrops, anomalousDrops := tab.Rows[0][2], tab.Rows[1][2]
	if healthyDrops != "0" {
		t.Fatalf("healthy case dropped packets: %s", healthyDrops)
	}
	if anomalousDrops == "0" {
		t.Fatal("anomalous case did not drop (should drop before fair share)")
	}
}

func TestFig11Traces(t *testing.T) {
	t.Parallel()
	fig := Fig11QueueEvolution()
	results := fig.Results()
	tables := fig.Tables(results)
	if len(tables) != 4 {
		t.Fatalf("tables = %d, want 4 (Occamy/DT × α∈{1,4})", len(tables))
	}
	for i, tab := range tables {
		if len(tab.Rows) < 10 || len(tab.Rows) > fig11Rows {
			t.Fatalf("%s: %d trace points, want 10..%d", tab.ID, len(tab.Rows), fig11Rows)
		}
		if _, err := mustDoc(t, results[i], true).Trace.QueueTracePlot(72, 0); err != nil {
			t.Fatalf("%s: %v", tab.ID, err)
		}
	}
}

// The Fig 12 headline shapes: Occamy absorbs at least as much as DT at
// every α; Occamy improves with α while DT degrades.
func TestFig12Shapes(t *testing.T) {
	t.Parallel()
	const lo, hi, step = 200_000, 800_000, 100_000
	lossless := func(kind string, alpha float64) int64 {
		return MaxLosslessBurst(Policy{Kind: kind, Alpha: alpha}, lo, hi, step)
	}
	occ1, occ4 := lossless("occamy", 1), lossless("occamy", 4)
	dt1, dt4 := lossless("dt", 1), lossless("dt", 4)
	t.Logf("lossless burst: occamy α=1 %d, α=4 %d; dt α=1 %d, α=4 %d", occ1, occ4, dt1, dt4)
	if occ4 <= dt4 {
		t.Errorf("Occamy(α=4) absorbs %d <= DT(α=4) %d", occ4, dt4)
	}
	if occ1 < dt1 {
		t.Errorf("Occamy(α=1) absorbs %d < DT(α=1) %d", occ1, dt1)
	}
	if occ4 < occ1 {
		t.Errorf("Occamy did not improve with α: %d (α=4) < %d (α=1)", occ4, occ1)
	}
	if dt4 > dt1 {
		t.Errorf("DT improved with α: %d (α=4) > %d (α=1); should degrade", dt4, dt1)
	}
}

// Fig 13 shape: with queries larger than the buffer, Occamy's average
// QCT beats DT's (the 55% headline, relaxed to "strictly better within
// noise" at test scale).
func TestFig13OccamyBeatsDT(t *testing.T) {
	t.Parallel()
	sc, _, _ := FigureScales(ScaleQuick)
	sc.Queries = 12
	occ := meanQCT(t, sc.spec(Policy{Kind: "occamy", Alpha: 8}, "", 0.5, 1.2))
	dt := meanQCT(t, sc.spec(Policy{Kind: "dt", Alpha: 1}, "", 0.5, 1.2))
	t.Logf("avg QCT: occamy %v, dt %v", occ, dt)
	if float64(occ) > 1.1*float64(dt) {
		t.Errorf("Occamy avg QCT %v worse than DT %v", occ, dt)
	}
}

// Fig 15 shape: low-priority background must not blow up a preemptive
// BM's high-priority QCT, while DT chokes.
func TestFig15ChokingMitigated(t *testing.T) {
	t.Parallel()
	sc, _, _ := FigureScales(ScaleQuick)
	sc.Queries = 10
	inflation := func(p Policy) float64 {
		p.AlphaHP, p.AlphaLP = 8, 1
		noBg := meanQCT(t, sc.spec(p, "sp", 0, 2.0))
		withBg := meanQCT(t, sc.spec(p, "sp", 0.5, 2.0))
		return float64(withBg) / float64(noBg)
	}
	occRatio := inflation(Policy{Kind: "occamy", Alpha: 8})
	dtRatio := inflation(Policy{Kind: "dt", Alpha: 1})
	t.Logf("QCT inflation from LP bg: occamy %.2fx, dt %.2fx", occRatio, dtRatio)
	if occRatio > dtRatio*1.05 {
		t.Errorf("Occamy choked more than DT: %.2fx vs %.2fx", occRatio, dtRatio)
	}
	if occRatio > 2.5 {
		t.Errorf("Occamy QCT inflated %.2fx by LP background; choking not mitigated", occRatio)
	}
}

// Fig 16 shape: Occamy can run large α without DT's anomalous behavior
// — at every α its average QCT is at least as good as DT's.
func TestFig16AlphaShape(t *testing.T) {
	t.Parallel()
	sc, _, _ := FigureScales(ScaleQuick)
	sc.Queries = 10
	for _, alpha := range []float64{1, 4, 8} {
		occ := meanQCT(t, sc.spec(Policy{Kind: "occamy", Alpha: alpha}, "drr", 0.5, 1.4))
		dt := meanQCT(t, sc.spec(Policy{Kind: "dt", Alpha: alpha}, "drr", 0.5, 1.4))
		t.Logf("avg QCT at α=%g: occamy %v, dt %v", alpha, occ, dt)
		if float64(occ) > 1.1*float64(dt) {
			t.Errorf("Occamy(α=%g) avg %v worse than DT(α=%g) %v", alpha, occ, alpha, dt)
		}
	}
}

func TestFig17Shape(t *testing.T) {
	t.Parallel()
	_, sc, _ := FigureScales(ScaleQuick)
	sc.SizeFracs = []float64{0.8}
	tab := oneTable(t, Fig17LargeScale(sc))
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var occ, dt float64
	for _, row := range tab.Rows {
		switch row[1] {
		case "Occamy":
			occ = atof(t, row[2])
		case "DT(a=1)":
			dt = atof(t, row[2])
		}
	}
	t.Logf("avg QCT slowdown: occamy %.2f, dt %.2f", occ, dt)
	if occ <= 0 || dt <= 0 {
		t.Fatal("missing slowdowns")
	}
	if occ > dt*1.05 {
		t.Errorf("Occamy slowdown %.2f worse than DT %.2f", occ, dt)
	}
}

func TestFig21RoundRobinCloseToLongest(t *testing.T) {
	t.Parallel()
	_, sc, _ := FigureScales(ScaleQuick)
	sc.SizeFracs = []float64{0.8}
	tab := oneTable(t, Fig21RoundRobinDrop(sc))
	if tab.Rows[0][1] != "Occamy" || tab.Rows[1][1] != "Occamy-LD" {
		t.Fatalf("policy names = %q, %q", tab.Rows[0][1], tab.Rows[1][1])
	}
	rr := atof(t, tab.Rows[0][2])
	ld := atof(t, tab.Rows[1][2])
	t.Logf("avg QCT slowdown: round-robin %.2f, longest %.2f", rr, ld)
	// The paper reports the two within ~15%; allow 35% at tiny scale.
	if rr > ld*1.35 || ld > rr*1.35 {
		t.Errorf("round-robin %.2f vs longest %.2f differ beyond tolerance", rr, ld)
	}
}

func TestFig7UtilizationBounds(t *testing.T) {
	t.Parallel()
	_, sc, _ := FigureScales(ScaleQuick)
	sc.Queries = 5
	tabs := Fig7Utilization(sc).Run()
	if len(tabs) != 2 {
		t.Fatalf("tables = %d, want 2", len(tabs))
	}
	bufT, bwT := tabs[0], tabs[1]
	for _, row := range bufT.Rows {
		for _, cell := range row[1:] {
			v := atof(t, cell)
			if v < 0 || v > 100 {
				t.Fatalf("buffer utilization %v out of [0,100]", v)
			}
		}
	}
	// DT never fills the buffer at drop time: p99 < 100%.
	if p99 := atof(t, bufT.Rows[0][4]); p99 >= 99 {
		t.Errorf("α=0.5 p99 buffer utilization %.1f%%; DT should waste buffer", p99)
	}
	if len(bwT.Rows) != 3 {
		t.Fatalf("bw rows = %d", len(bwT.Rows))
	}
}

// The Fig 7 probe is installed only for specs that select a
// drop_*_util_* column: the same run without them samples nothing, and
// sampling does not perturb the simulation.
func TestDropUtilSamplerOnlyWhenSelected(t *testing.T) {
	t.Parallel()
	_, sc, _ := FigureScales(ScaleQuick)
	sc.Queries = 3
	probed := Fig7Utilization(sc).Specs[1] // DT α=1, the point that drops at this scale
	plain := probed
	plain.Metrics = nil
	rp, rn := MustRun(probed), MustRun(plain)
	if len(rp.DropBufUtil) == 0 || len(rp.DropBufUtil) != len(rp.DropMemBWUtil) {
		t.Fatalf("probed run sampled %d/%d utilizations", len(rp.DropBufUtil), len(rp.DropMemBWUtil))
	}
	if int64(len(rp.DropBufUtil)) != rp.Total.Drops() {
		t.Errorf("sampled %d drops, switches counted %d", len(rp.DropBufUtil), rp.Total.Drops())
	}
	if len(rn.DropBufUtil) != 0 || len(rn.DropMemBWUtil) != 0 {
		t.Errorf("unprobed run sampled %d utilizations", len(rn.DropBufUtil))
	}
	if rp.Events != rn.Events || rp.Total != rn.Total {
		t.Errorf("probe perturbed the run: events %d vs %d, stats %+v vs %+v", rp.Events, rn.Events, rp.Total, rn.Total)
	}
}

func TestFig22HeavyLoadRuns(t *testing.T) {
	t.Parallel()
	_, sc, _ := FigureScales(ScaleQuick)
	sc.Queries = 5
	sc.SizeFracs = []float64{0.6}
	for _, row := range oneTable(t, Fig22HeavyLoad(sc)).Rows {
		if atof(t, row[2]) <= 0 {
			t.Fatalf("no QCT measured under heavy load: %v", row)
		}
	}
}

func TestFig23BufferSweepMonotonicBenefit(t *testing.T) {
	t.Parallel()
	_, sc, _ := FigureScales(ScaleQuick)
	sc.Queries = 6
	tab := oneTable(t, Fig23BufferSize(sc))
	// Occamy must beat or match DT at every buffer size (the "always
	// brings some benefit" claim).
	byFactor := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		if byFactor[row[0]] == nil {
			byFactor[row[0]] = map[string]float64{}
		}
		byFactor[row[0]][row[1]] = atof(t, row[2])
	}
	for factor, m := range byFactor {
		if m["Occamy"] > m["DT(a=1)"]*1.15 {
			t.Errorf("factor %s: Occamy %.2f worse than DT %.2f", factor, m["Occamy"], m["DT(a=1)"])
		}
	}
}

func TestFig18Fig19Collectives(t *testing.T) {
	t.Parallel()
	_, sc, _ := FigureScales(ScaleQuick)
	sc.Queries = 5
	sc.FlowSizes = []int64{128_000}
	for _, fig := range []Figure{Fig18AllToAll(sc), Fig19AllReduce(sc)} {
		tab := oneTable(t, fig)
		if len(tab.Rows) != 4 {
			t.Fatalf("%s rows = %d", tab.ID, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if atof(t, row[2]) <= 0 {
				t.Fatalf("%s: empty QCT for %s", tab.ID, row[1])
			}
		}
	}
}

func TestFig20QueryLoadRuns(t *testing.T) {
	t.Parallel()
	_, sc, _ := FigureScales(ScaleQuick)
	sc.Queries = 5
	sc.QueryLoads = []float64{0.2}
	if tab := oneTable(t, Fig20QueryLoad(sc)); len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig14IsolationRuns(t *testing.T) {
	t.Parallel()
	sc, _, _ := FigureScales(ScaleQuick)
	sc.Queries = 6
	sc.Loads = []float64{0.4}
	tab := oneTable(t, Fig14Isolation(sc))
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if atof(t, row[2]) <= 0 {
			t.Fatalf("no QCT for %s", row[1])
		}
	}
}

func TestFig6ChokingMechanism(t *testing.T) {
	t.Parallel()
	// Choking row, competing run: the LP companions must fill most of
	// the buffer (choking pressure) and the HP incast must see drops
	// before reaching its deserved 1MB.
	with := MustRun(Fig6Anomalies(6, []float64{2.5}).Specs[1])
	peak := 100 * float64(with.MaxOccupancy) / float64(with.BufferBytes)
	hpDrops := with.classDrops(0)
	t.Logf("choking: peak buffer %.1f%%, HP drops with companions %d", peak, hpDrops)
	if peak < 60 {
		t.Errorf("LP companions hold only %.1f%% of buffer; no choking pressure", peak)
	}
	if hpDrops == 0 {
		t.Error("no HP drops under choking; anomaly not reproduced")
	}
}

// Fig 6's hp_drops columns count class 0 only: in the inter-port case
// every loss is class-1 background on other ports, so the HP columns
// read zero while the switch as a whole did drop (the golden table pins
// the rendered cell).
func TestFig6HPDropsAreClassZero(t *testing.T) {
	t.Parallel()
	// Rows: choking, inter-port; specs per row: alone, competing.
	interPort := MustRun(Fig6Anomalies(3, []float64{1.5}).Specs[3])
	if interPort.Total.Drops() == 0 {
		t.Fatal("inter-port background dropped nothing; the case no longer exercises the column")
	}
	if got := interPort.classDrops(0); got != 0 {
		t.Errorf("class-0 drops = %d, want 0 (all %d drops are class-1 background)", got, interPort.Total.Drops())
	}
	if got, want := interPort.classDrops(1), interPort.Total.Drops(); got != want {
		t.Errorf("class-1 drops = %d, want every drop (%d)", got, want)
	}
}

func TestExtrasBakeoffRuns(t *testing.T) {
	t.Parallel()
	sc, _, _ := FigureScales(ScaleQuick)
	sc.Queries = 5
	sc.SizeFracs = []float64{0.8}
	tab := oneTable(t, ExtrasBakeoff(sc))
	if len(tab.Rows) != 9 { // 4 standard + 5 extras
		t.Fatalf("rows = %d, want 9", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if atof(t, row[2]) <= 0 {
			t.Fatalf("policy %s produced no QCT", row[1])
		}
	}
}

// tinyDPDK keeps the determinism runs to a few hundred milliseconds.
func tinyDPDK() DPDKScale {
	sc, _, _ := FigureScales(ScaleQuick)
	sc.Queries = 3
	sc.SizeFracs = []float64{0.6}
	return sc
}

func tinyFabric() FabricScale {
	_, sc, _ := FigureScales(ScaleQuick)
	sc.Queries = 2
	sc.SizeFracs = []float64{0.4}
	return sc
}

// Identical seeds must give byte-identical tables on repeated runs — the
// engine's FIFO tie-break and the per-run RNG forks are the whole story.
func TestDPDKExperimentDeterministic(t *testing.T) {
	t.Parallel()
	sc := tinyDPDK()
	a := render(Fig13SoftwareSwitch(sc).Run())
	b := render(Fig13SoftwareSwitch(sc).Run())
	if a != b {
		t.Fatalf("Fig13 differs across identical runs:\n--- first\n%s--- second\n%s", a, b)
	}
}

func TestFabricExperimentDeterministic(t *testing.T) {
	t.Parallel()
	sc := tinyFabric()
	a := render(Fig21RoundRobinDrop(sc).Run())
	b := render(Fig21RoundRobinDrop(sc).Run())
	if a != b {
		t.Fatalf("Fig21 differs across identical runs:\n--- first\n%s--- second\n%s", a, b)
	}
}

// The parallel sweep runner must not leak scheduling order into results:
// -j 1 and -j N produce the same bytes.
func TestGridParallelismInvariance(t *testing.T) {
	sc := tinyDPDK()
	defer experiments.SetParallelism(0)
	experiments.SetParallelism(1)
	serial := render(Fig13SoftwareSwitch(sc).Run())
	experiments.SetParallelism(4)
	parallel := render(Fig13SoftwareSwitch(sc).Run())
	if serial != parallel {
		t.Fatalf("Fig13 differs between -j 1 and -j 4:\n--- serial\n%s--- parallel\n%s", serial, parallel)
	}
}

// Every catalog figure follows -scale: its grid's total hosts × gating
// queries (raw specs count one) never shrinks from quick to full to
// paper, and is larger at paper than at quick unless the paper fixes
// the grid. The specs are built, not run.
func TestFigureScalesGrow(t *testing.T) {
	t.Parallel()
	fixed := map[string]bool{"table1": true, "fig3": true, "fig11": true, "fig12": true}
	for _, fig := range paperFigures {
		var size [3]int
		for i, s := range []Scale{ScaleQuick, ScaleFull, ScalePaper} {
			for _, spec := range fig.at(s).Specs {
				queries := 1
				if g := spec.gatingIncast(); g >= 0 {
					queries = spec.Workloads[g].Queries
				}
				size[i] += spec.Topology.NumHosts() * queries
			}
		}
		if size[0] > size[1] || size[1] > size[2] || !fixed[fig.id] && size[2] <= size[0] {
			t.Errorf("%s: hosts × queries at quick, full, paper = %v", fig.id, size)
		}
	}
}

// Figure points are servable jobs: every spec a figure builds validates
// and survives the file/HTTP round trip (Marshal → ParseSpec) with its
// content address intact, so any point can be submitted to a worker and
// answered from its cache. (internal/service's TestFigurePointsAreJobs
// closes the loop through Submit.)
func TestFigureSpecsRoundTrip(t *testing.T) {
	t.Parallel()
	n := 0
	for _, fig := range paperFigures {
		name := fig.id
		for i, s := range fig.at(ScaleQuick).Specs {
			n++
			if err := s.WithDefaults().Validate(); err != nil {
				t.Errorf("%s spec %d: %v", name, i, err)
				continue
			}
			want, err := s.Fingerprint()
			if err != nil {
				t.Fatalf("%s spec %d: %v", name, i, err)
			}
			data, err := s.Marshal()
			if err != nil {
				t.Fatalf("%s spec %d: %v", name, i, err)
			}
			back, err := ParseSpec(data)
			if err != nil {
				t.Errorf("%s spec %d does not parse back: %v\n%s", name, i, err, data)
				continue
			}
			if got, _ := back.Fingerprint(); got != want {
				t.Errorf("%s spec %d: fingerprint changed across Marshal/ParseSpec", name, i)
			}
		}
	}
	if n < 150 {
		t.Errorf("figures built only %d specs; the enumeration lost a family", n)
	}
}
