package scenario

import (
	"strings"
	"testing"
)

// The occupancy-decomposition property, at full depth: at every sample
// instant, the per-queue series of a switch must sum to the whole-switch
// series, and each port's sums must have the port's peak and mean — and
// the threshold series must be aligned sample-for-sample. Checked across
// every catalog entry, single-switch and fabric, every scheduler and
// class count.
func TestQueueSeriesSumToPortAndSwitchSeries(t *testing.T) {
	t.Parallel()
	for _, name := range exportableNames(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, _ := Get(name)
			res, err := Run(sc.SpecAt(ScaleQuick))
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Telemetry {
				tel := &res.Telemetry[i]
				nSamples := len(tel.Series)
				if nSamples == 0 {
					t.Fatalf("switch %s recorded no samples", tel.Name)
				}
				if got := len(tel.PortPeak); got != len(tel.Ports) {
					t.Fatalf("switch %s: %d port peaks for %d ports", tel.Name, got, len(tel.Ports))
				}
				if got := len(tel.Queues); got != len(tel.Ports)*tel.Classes {
					t.Fatalf("switch %s: %d queue entries for %d ports x %d classes",
						tel.Name, got, len(tel.Ports), tel.Classes)
				}
				for q := range tel.Queues {
					qt := &tel.Queues[q]
					if len(qt.Series) != nSamples || len(qt.Threshold) != nSamples {
						t.Fatalf("switch %s queue %s: series %d / threshold %d samples, switch has %d",
							tel.Name, qt.Label(), len(qt.Series), len(qt.Threshold), nSamples)
					}
				}
				portPeak, portSum := make([]float64, len(tel.Ports)), make([]float64, len(tel.Ports))
				for s := 0; s < nSamples; s++ {
					swSum := 0.0
					for p := range tel.Ports {
						occ := 0.0
						for c := 0; c < tel.Classes; c++ {
							occ += tel.Queues[p*tel.Classes+c].Series[s]
						}
						portPeak[p] = max(portPeak[p], occ)
						portSum[p] += occ
						swSum += occ
					}
					if swSum != tel.Series[s] {
						t.Fatalf("switch %s sample %d: queue sum %g != switch series %g",
							tel.Name, s, swSum, tel.Series[s])
					}
				}
				for p := range tel.Ports {
					if mean := portSum[p] / float64(nSamples); int(portPeak[p]) != tel.PortPeak[p] || mean != tel.PortMean[p] {
						t.Fatalf("switch %s port %d: peak %d / mean %g, queue sums %g / %g",
							tel.Name, p, tel.PortPeak[p], tel.PortMean[p], portPeak[p], mean)
					}
				}
				// Peaks/means/min-headroom must match their own series.
				for q := range tel.Queues {
					qt := &tel.Queues[q]
					peak, sum, minHead := 0.0, 0.0, qt.Threshold[0]-qt.Series[0]
					for s := range qt.Series {
						if qt.Series[s] > peak {
							peak = qt.Series[s]
						}
						sum += qt.Series[s]
						if h := qt.Threshold[s] - qt.Series[s]; h < minHead {
							minHead = h
						}
					}
					if int(peak) != qt.Peak {
						t.Errorf("switch %s queue %s: Peak %d, series max %g", tel.Name, qt.Label(), qt.Peak, peak)
					}
					if mean := sum / float64(len(qt.Series)); mean != qt.Mean {
						t.Errorf("switch %s queue %s: Mean %g, series mean %g", tel.Name, qt.Label(), qt.Mean, mean)
					}
					if int(minHead) != qt.MinHeadroom {
						t.Errorf("switch %s queue %s: MinHeadroom %d, series min %g",
							tel.Name, qt.Label(), qt.MinHeadroom, minHead)
					}
				}
			}
		})
	}
}

// Multi-class scenarios must actually exercise multiple classes: at
// least two distinct classes of some port see traffic, so the per-queue
// telemetry separates backlogs the per-port view blurs together.
func TestMultiClassScenariosFillMultipleClasses(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"priority-inversion-8", "mixed-class-incast", "multiclass-fabric-drr"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, ok := Get(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			if classes := sc.Spec.Topology.Classes; classes < 2 {
				t.Fatalf("spec has %d classes, want >= 2", classes)
			}
			res, err := Run(sc.SpecAt(ScaleQuick))
			if err != nil {
				t.Fatal(err)
			}
			active := map[int]bool{}
			for i := range res.Telemetry {
				for q := range res.Telemetry[i].Queues {
					if qt := &res.Telemetry[i].Queues[q]; qt.Peak > 0 {
						active[qt.Class] = true
					}
				}
			}
			if len(active) < 2 {
				t.Errorf("only classes %v buffered traffic; multi-class telemetry unexercised", active)
			}
			if tab := mustDoc(t, res, false).QueueTable(); len(tab.Rows) < 2 {
				t.Errorf("QueueTable has %d rows, want >= 2", len(tab.Rows))
			}
		})
	}
}

// Golden threshold-overlay traces: the per-queue occupancy-vs-threshold
// view for one Occamy scenario and the same workload under plain DT.
// Byte-identity pins the sampling instants, the threshold clamp, the
// headroom math, and the overlay rendering; regenerate after an
// intentional change with GOLDEN_UPDATE=1 (output is deterministic, so
// regeneration is byte-identical at any test or sweep parallelism).
func goldenQueueTrace(t *testing.T, spec Spec) string {
	t.Helper()
	render := func() string {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		doc := mustDoc(t, res, true)
		plot, err := doc.Trace.QueueTracePlot(72, 8)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		doc.QueueTable().Fprint(&b)
		b.WriteString("\nhottest queues vs policy threshold:\n")
		b.WriteString(plot)
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("queue trace differs across identical runs:\n--- first\n%s--- second\n%s", a, b)
	}
	return a
}

func TestGoldenQueueTraceOccamy(t *testing.T) {
	t.Parallel()
	sc, _ := Get("mixed-class-incast")
	checkGolden(t, "mixed_class_incast_queue_trace_golden.txt", goldenQueueTrace(t, sc.SpecAt(ScaleQuick)))
}

func TestGoldenQueueTraceDT(t *testing.T) {
	t.Parallel()
	sc, _ := Get("mixed-class-incast")
	spec := sc.SpecAt(ScaleQuick)
	spec.Policy = Policy{Kind: "dt", Alpha: 1}
	checkGolden(t, "mixed_class_incast_dt_queue_trace_golden.txt", goldenQueueTrace(t, spec))
}
