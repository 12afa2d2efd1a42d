package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// Golden tables
//
// Two families of byte-identity anchors, committed under testdata/ and
// diffed exactly. The tail-quantile and per-switch breakdowns of a few
// at-scale catalog entries anchor the telemetry layer: any change that
// perturbs sampling instants, quantile math, per-port accounting, or
// cell formatting shows up there first. The figure tables anchor the
// spec builders and everything under them: a change that perturbs
// simulation behavior — reordered events, a different RNG consumption
// pattern, a new default — shows up here immediately, even if every
// shape test still passes. The Fig 7, Fig 12 and Fig 17–23 goldens were
// captured from the imperative runners the figure specs replaced and
// carried over unchanged.
//
// Regenerate (after an *intentional* behavior change) with:
//
//	GOLDEN_UPDATE=1 go test ./internal/scenario -run TestGolden

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with GOLDEN_UPDATE=1 to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the committed golden table.\n--- want\n%s--- got\n%s", name, want, got)
	}
}

func goldenDeepTables(t *testing.T, name string) string {
	t.Helper()
	c := corpus(t, name, "")
	return render([]*Table{c.res.Table(), c.doc.TailTable(), c.doc.PerSwitchTable()})
}

// goldenFaultTables is goldenDeepTables plus the per-link fault counter
// table, with an optional policy override — the anchors for the fault
// injection layer under both Occamy and plain DT.
func goldenFaultTables(t *testing.T, name string, policy *Policy) string {
	t.Helper()
	if policy == nil {
		c := corpus(t, name, "")
		return render([]*Table{c.res.Table(), c.doc.TailTable(), c.doc.PerSwitchTable(), c.doc.FaultTable()})
	}
	sc, _ := Get(name)
	spec := sc.SpecAt(ScaleQuick)
	spec.Policy = *policy
	res := MustRun(spec)
	doc := mustDoc(t, res, false)
	return render([]*Table{res.Table(), doc.TailTable(), doc.PerSwitchTable(), doc.FaultTable()})
}

func TestGoldenIncastStorm(t *testing.T) {
	t.Parallel()
	checkGolden(t, "incast_storm_256_quick_golden.txt", goldenDeepTables(t, "incast-storm-256"))
}

func TestGoldenMixedLoad(t *testing.T) {
	t.Parallel()
	checkGolden(t, "mixed_load_90_quick_golden.txt", goldenDeepTables(t, "mixed-load-90"))
}

func TestGoldenWanDegradedOccamy(t *testing.T) {
	t.Parallel()
	checkGolden(t, "wan_degraded_leafspine_quick_golden.txt",
		goldenFaultTables(t, "wan-degraded-leafspine", nil))
}

func TestGoldenWanDegradedDT(t *testing.T) {
	t.Parallel()
	checkGolden(t, "wan_degraded_leafspine_dt_quick_golden.txt",
		goldenFaultTables(t, "wan-degraded-leafspine", &Policy{Kind: "dt", Alpha: 1}))
}

func TestGoldenFlakyTorOccamy(t *testing.T) {
	t.Parallel()
	checkGolden(t, "flaky_tor_incast_quick_golden.txt",
		goldenFaultTables(t, "flaky-tor-incast", nil))
}

func TestGoldenFlakyTorDT(t *testing.T) {
	t.Parallel()
	checkGolden(t, "flaky_tor_incast_dt_quick_golden.txt",
		goldenFaultTables(t, "flaky-tor-incast", &Policy{Kind: "dt", Alpha: 1}))
}

// The committed small-scale Fig 6/7 configurations: fewer queries (and,
// for Fig 6, one query size) than the fig6/fig7 catalog entries run at
// quick scale.
func TestGoldenFig6(t *testing.T) {
	t.Parallel()
	checkGolden(t, "fig6_golden.txt", render(Fig6Anomalies(3, []float64{1.5}).Run()))
}

func TestGoldenFig7(t *testing.T) {
	t.Parallel()
	_, sc, _ := FigureScales(ScaleQuick)
	sc.Queries = 3
	tabs := Fig7Utilization(sc).Run()
	checkGolden(t, "fig7a_golden.txt", render(tabs[:1]))
	checkGolden(t, "fig7b_golden.txt", render(tabs[1:]))
}

// goldenFigures checks each single-table figure against
// testdata/<table id>_golden.txt.
func goldenFigures(t *testing.T, figs ...Figure) {
	t.Helper()
	for _, fig := range figs {
		tabs := fig.Run()
		checkGolden(t, tabs[0].ID+"_golden.txt", render(tabs))
	}
}

func TestGoldenRawFigs(t *testing.T) {
	t.Parallel()
	goldenFigures(t, Fig3DTBehavior(), Fig12BurstAbsorption())
}

// The software-switch figures are pinned at half of quick scale (their
// quick sweeps are 89 runs): the same specs, fewer queries and sizes.
func TestGoldenDPDKFigs(t *testing.T) {
	t.Parallel()
	sc, _, _ := FigureScales(ScaleQuick)
	sc.Queries = 4
	sc.SizeFracs = []float64{0.4, 1.2}
	goldenFigures(t, Fig13SoftwareSwitch(sc), Fig14Isolation(sc), Fig15BufferChoking(sc),
		Fig16AlphaImpact(sc), ExtrasBakeoff(sc))
}

func TestGoldenFabricFigs(t *testing.T) {
	t.Parallel()
	_, sc, _ := FigureScales(ScaleQuick)
	goldenFigures(t, Fig17LargeScale(sc), Fig18AllToAll(sc), Fig19AllReduce(sc), Fig20QueryLoad(sc),
		Fig21RoundRobinDrop(sc), Fig22HeavyLoad(sc), Fig23BufferSize(sc))
}
