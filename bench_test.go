// Benchmarks: one per table/figure of the paper. Each benchmark runs
// the corresponding figure (internal/scenario/figures_*.go: a grid of
// specs through scenario.Run) at a bounded scale and reports ns/op,
// allocs/op, and the simulated-events-per-second the engine sustained;
// `go test -bench=. -benchmem` regenerates every row the paper's
// evaluation reports (at reduced scale — `occamy-scenario run <fig>
// -scale paper` runs paper scale). cmd/occamy-bench snapshots the whole
// suite to JSON.
package occamy_test

import (
	"testing"

	"occamy"
	"occamy/internal/scenario"
)

// benchDPDK is the fixed sweep scale for the Fig 13–16 benchmarks.
func benchDPDK() scenario.DPDKScale {
	sc, _, _ := scenario.FigureScales(scenario.ScaleQuick)
	sc.Queries = 10
	return sc
}

func benchFabric() scenario.FabricScale {
	_, sc, _ := scenario.FigureScales(scenario.ScaleQuick)
	sc.Queries = 6
	return sc
}

// benchLoop standardizes the figure benchmarks: allocation reporting
// plus a simulated events/sec metric from the event counts body
// returns.
func benchLoop(b *testing.B, body func() (events uint64)) {
	b.ReportAllocs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += body()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// benchFigure runs fig end to end — every spec through scenario.Run,
// then the table layout — and checks the row count of each table.
func benchFigure(b *testing.B, fig scenario.Figure, rows ...int) {
	benchLoop(b, func() (events uint64) {
		results := fig.Results()
		for _, r := range results {
			events += r.Events
		}
		tabs := fig.Tables(results)
		if len(tabs) != len(rows) {
			b.Fatalf("%d tables, want %d", len(tabs), len(rows))
		}
		for i, tab := range tabs {
			if rows[i] > 0 && len(tab.Rows) != rows[i] {
				b.Fatalf("%s: %d rows, want %d", tab.ID, len(tab.Rows), rows[i])
			}
		}
		return events
	})
}

// BenchmarkTable1HardwareCost runs the table1 catalog entry: Table 1,
// the Maximum Finder and the Fig 10 pipeline rows.
func BenchmarkTable1HardwareCost(b *testing.B) {
	sc, ok := scenario.Get("table1")
	if !ok {
		b.Fatal("table1 not registered")
	}
	benchLoop(b, func() uint64 {
		if tabs := sc.Tables(scenario.ScaleQuick); len(tabs) != 3 || len(tabs[0].Rows) != 4 {
			b.Fatal("bad table")
		}
		return 0
	})
}

func BenchmarkFig3DTBehavior(b *testing.B) { benchFigure(b, scenario.Fig3DTBehavior(), 2) }

func BenchmarkFig6Anomalies(b *testing.B) {
	benchFigure(b, scenario.Fig6Anomalies(4, []float64{2.5}), 2)
}

func BenchmarkFig7Utilization(b *testing.B) {
	benchFigure(b, scenario.Fig7Utilization(benchFabric()), 2, 3)
}

// Fig 11's row counts follow the recorder cadence; only the table count
// is checked.
func BenchmarkFig11QueueEvolution(b *testing.B) {
	benchFigure(b, scenario.Fig11QueueEvolution(), 0, 0, 0, 0)
}

func BenchmarkFig12BurstAbsorption(b *testing.B) {
	benchFigure(b, scenario.Fig12BurstAbsorption(), 18)
}

func BenchmarkFig13SoftwareSwitch(b *testing.B) {
	sc := benchDPDK()
	sc.SizeFracs = []float64{0.8}
	benchFigure(b, scenario.Fig13SoftwareSwitch(sc), 4)
}

func BenchmarkFig14Isolation(b *testing.B) {
	sc := benchDPDK()
	sc.Loads = []float64{0.4}
	benchFigure(b, scenario.Fig14Isolation(sc), 4)
}

func BenchmarkFig15BufferChoking(b *testing.B) {
	sc := benchDPDK()
	sc.SizeFracs = []float64{1.0}
	benchFigure(b, scenario.Fig15BufferChoking(sc), 4)
}

func BenchmarkFig16AlphaImpact(b *testing.B) {
	sc := benchDPDK()
	sc.Alphas = []float64{1, 8}
	sc.SizeFracs = []float64{0.8}
	benchFigure(b, scenario.Fig16AlphaImpact(sc), 2)
}

func BenchmarkFig17LargeScale(b *testing.B) {
	sc := benchFabric()
	sc.SizeFracs = []float64{0.8}
	benchFigure(b, scenario.Fig17LargeScale(sc), 4)
}

func BenchmarkFig18AllToAll(b *testing.B) {
	sc := benchFabric()
	sc.FlowSizes = []int64{128_000}
	benchFigure(b, scenario.Fig18AllToAll(sc), 4)
}

func BenchmarkFig19AllReduce(b *testing.B) {
	sc := benchFabric()
	sc.FlowSizes = []int64{128_000}
	benchFigure(b, scenario.Fig19AllReduce(sc), 4)
}

func BenchmarkFig20QueryLoad(b *testing.B) {
	sc := benchFabric()
	sc.QueryLoads = []float64{0.4}
	benchFigure(b, scenario.Fig20QueryLoad(sc), 4)
}

func BenchmarkFig21RoundRobinDrop(b *testing.B) {
	sc := benchFabric()
	sc.SizeFracs = []float64{0.8}
	benchFigure(b, scenario.Fig21RoundRobinDrop(sc), 2)
}

func BenchmarkFig22HeavyLoad(b *testing.B) {
	sc := benchFabric()
	sc.SizeFracs = []float64{0.6}
	benchFigure(b, scenario.Fig22HeavyLoad(sc), 4)
}

func BenchmarkFig23BufferSize(b *testing.B) {
	sc := benchFabric()
	sc.BufferFactors = []float64{5.12}
	benchFigure(b, scenario.Fig23BufferSize(sc), 4)
}

// --- Ablation benches (DESIGN.md design-choice list) ------------------------

// ablationBurst is the raw burst scenario the ablations share: the
// burst-absorb catalog entry (a pinned 2× queue, then a 100G burst into
// a second port of a 1.2MB switch) with a 600KB burst.
func ablationBurst(b *testing.B) scenario.Spec {
	sc, ok := scenario.Get("burst-absorb")
	if !ok {
		b.Fatal("burst-absorb not registered")
	}
	spec := sc.Spec
	spec.Workloads = append([]scenario.Workload(nil), spec.Workloads...)
	spec.Workloads[1].Bytes = 600_000
	return spec
}

// BenchmarkAblationVictimPolicy compares the cost/behaviour of Occamy's
// round-robin victim selection against the Maximum-Finder-based
// longest-queue variant in the raw burst scenario.
func BenchmarkAblationVictimPolicy(b *testing.B) {
	for _, kind := range []string{"occamy", "occamy-ld"} {
		spec := ablationBurst(b)
		spec.Policy = scenario.Policy{Kind: kind, Alpha: 4}
		b.Run(kind, func(b *testing.B) {
			benchLoop(b, func() uint64 {
				r := scenario.MustRun(spec)
				if r.Workloads[1].SentPackets == 0 {
					b.Fatal("no burst sent")
				}
				return r.Events
			})
		})
	}
}

// BenchmarkAblationTokenGate compares expulsion with the
// redundant-bandwidth token bucket against an effectively ungated
// engine (a token rate far above any physical memory bandwidth). The
// token rate is not a spec field, so this one wires the same burst
// scenario by hand through the public API.
func BenchmarkAblationTokenGate(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  occamy.OccamyConfig
	}{
		{"Occamy", occamy.OccamyConfig{Alpha: 4}},
		{"Occamy-nogate", occamy.OccamyConfig{Alpha: 4, TokenRate: 1e15, TokenBurst: 1e9}},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchLoop(b, func() uint64 {
				eng := occamy.NewEngine()
				cfg := c.cfg
				sw := occamy.NewSwitch("ablation", eng, occamy.SwitchConfig{
					Ports: 8, ClassesPerPort: 1, BufferBytes: 1_200_000,
					Policy: occamy.NewOccamy(cfg), Occamy: &cfg,
				})
				for i := 0; i < 8; i++ {
					sw.AttachPort(i, 10e9, 0, func(*occamy.Packet) {})
				}
				sw.SetRouter(func(p *occamy.Packet) int { return int(p.Dst) })
				inject := func(dst occamy.NodeID) func() {
					return func() { sw.Receive(&occamy.Packet{Dst: dst, Size: 1000}) }
				}
				// 20G into port 0 throughout; 600 packets at 100G into port 1
				// once queue 0 has settled at its threshold.
				long := eng.Every(0, 400*occamy.Nanosecond, inject(0))
				burst := eng.Every(1250*occamy.Microsecond, 80*occamy.Nanosecond, inject(1))
				eng.RunUntil(1250*occamy.Microsecond + 600*80*occamy.Nanosecond)
				burst.Stop()
				eng.RunUntil(1650 * occamy.Microsecond)
				long.Stop()
				if sw.Stats().DropsExpelled == 0 {
					b.Fatal("no expulsions: the ablation is not exercising the gate")
				}
				return eng.Processed()
			})
		})
	}
}
