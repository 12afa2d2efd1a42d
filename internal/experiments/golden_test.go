package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// Golden-table regression tests
//
// The Fig 6/7 harnesses are the byte-identity anchors for any refactor of
// the scenario-assembly layer: their small-scale output tables are
// committed under testdata/ and diffed byte-for-byte. A change that
// perturbs simulation behavior — reordered events, a different RNG
// consumption pattern, a new default — shows up here immediately, even if
// every shape test still passes.
//
// Regenerate (after an *intentional* behavior change) with:
//
//	GOLDEN_UPDATE=1 go test ./internal/experiments -run TestGolden

// goldenFig6 is the committed small-scale Fig 6 configuration.
func goldenFig6() *Table {
	return Fig6Anomalies(3, []float64{1.5})
}

// goldenFig7 is the committed small-scale Fig 7 configuration.
func goldenFig7() (*Table, *Table) {
	sc := QuickFabric()
	sc.Queries = 3
	return Fig7Utilization(sc)
}

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

func TestGoldenFig6(t *testing.T) {
	checkGolden(t, "fig6_golden.txt", render(goldenFig6()))
}

func TestGoldenFig7(t *testing.T) {
	bufT, bwT := goldenFig7()
	checkGolden(t, "fig7a_golden.txt", render(bufT))
	checkGolden(t, "fig7b_golden.txt", render(bwT))
}

// Pre-port anchors: the quick-scale Fig 12 and Fig 17–23 tables, captured
// from the imperative runners before they are replaced, so the ported
// figures can be held to byte identity.
func TestGoldenFig12(t *testing.T) {
	checkGolden(t, "fig12_golden.txt", render(Fig12BurstAbsorption()))
}

func TestGoldenFabricFigs(t *testing.T) {
	sc := QuickFabric()
	for _, tab := range []*Table{
		Fig17LargeScale(sc), Fig18AllToAll(sc), Fig19AllReduce(sc), Fig20QueryLoad(sc),
		Fig21RoundRobinDrop(sc), Fig22HeavyLoad(sc), Fig23BufferSize(sc),
	} {
		checkGolden(t, tab.ID+"_golden.txt", render(tab))
	}
}
