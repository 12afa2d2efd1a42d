package scenario

import (
	"strings"
	"testing"

	"occamy/internal/switchsim"
)

// The zero-drift property, pushed down a level: per-port counters must
// sum to per-switch stats, per-switch stats to the global totals, and
// the whole book must close (rx = tx + drops + expelled + buffered) —
// on every catalog scenario, single-switch and fabric alike.
func TestTelemetrySumsToGlobalTotals(t *testing.T) {
	t.Parallel()
	for _, name := range exportableNames(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, _ := Get(name)
			res, err := Run(sc.SpecAt(ScaleQuick))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Telemetry) != len(res.PerSwitch) {
				t.Fatalf("%d telemetry entries for %d switches", len(res.Telemetry), len(res.PerSwitch))
			}
			var total switchsim.Stats
			for i, st := range res.PerSwitch {
				var agg switchsim.PortStats
				for _, ps := range res.Telemetry[i].Ports {
					agg.TxPackets += ps.TxPackets
					agg.TxBytes += ps.TxBytes
					agg.DropsAdmission += ps.DropsAdmission
					agg.DropsNoMemory += ps.DropsNoMemory
					agg.DropsExpelled += ps.DropsExpelled
					agg.ECNMarked += ps.ECNMarked
				}
				if agg.TxPackets != st.TxPackets || agg.TxBytes != st.TxBytes {
					t.Errorf("switch %d: per-port tx (%d pkts, %d B) != stats (%d, %d)",
						i, agg.TxPackets, agg.TxBytes, st.TxPackets, st.TxBytes)
				}
				if agg.Drops() != st.Drops() || agg.DropsExpelled != st.DropsExpelled {
					t.Errorf("switch %d: per-port drops (%d arr, %d exp) != stats (%d, %d)",
						i, agg.Drops(), agg.DropsExpelled, st.Drops(), st.DropsExpelled)
				}
				if agg.ECNMarked != st.ECNMarked {
					t.Errorf("switch %d: per-port ECN %d != stats %d", i, agg.ECNMarked, st.ECNMarked)
				}
				// One level deeper: each port's per-queue counters must sum
				// to that port's PortStats exactly (drops no longer
				// attribute only to ports).
				tel := &res.Telemetry[i]
				for p, ps := range tel.Ports {
					var qagg switchsim.QueueStats
					for c := 0; c < tel.Classes; c++ {
						qs := tel.Queues[p*tel.Classes+c].Stats
						qagg.TxPackets += qs.TxPackets
						qagg.TxBytes += qs.TxBytes
						qagg.DropsAdmission += qs.DropsAdmission
						qagg.DropsNoMemory += qs.DropsNoMemory
						qagg.DropsExpelled += qs.DropsExpelled
						qagg.ECNMarked += qs.ECNMarked
					}
					want := switchsim.QueueStats{
						TxPackets: ps.TxPackets, TxBytes: ps.TxBytes,
						DropsAdmission: ps.DropsAdmission, DropsNoMemory: ps.DropsNoMemory,
						DropsExpelled: ps.DropsExpelled, ECNMarked: ps.ECNMarked,
					}
					if qagg != want {
						t.Errorf("switch %d port %d: per-queue sums %+v != port stats %+v", i, p, qagg, want)
					}
				}
				total.TxPackets += st.TxPackets
				total.DropsAdmission += st.DropsAdmission
				total.DropsNoMemory += st.DropsNoMemory
				total.DropsExpelled += st.DropsExpelled
			}
			if total.TxPackets != res.Total.TxPackets || total.Drops() != res.Total.Drops() ||
				total.DropsExpelled != res.Total.DropsExpelled {
				t.Errorf("per-switch sums do not reproduce Total: %+v vs %+v", total, res.Total)
			}
			if drift := res.AccountingDrift(); drift != 0 {
				t.Errorf("packet accounting drift %d", drift)
			}
			// Occupancy telemetry sanity: the recorded peak is the result's
			// MaxOccupancy, per-port peaks stay under their switch's peak,
			// and every switch's series has the same aligned length.
			maxPeak := 0
			for i := range res.Telemetry {
				tel := &res.Telemetry[i]
				if tel.PeakOcc > maxPeak {
					maxPeak = tel.PeakOcc
				}
				for p, pk := range tel.PortPeak {
					if pk > tel.PeakOcc {
						t.Errorf("switch %d port %d peak %d exceeds switch peak %d", i, p, pk, tel.PeakOcc)
					}
				}
				if len(tel.Series) != len(res.Telemetry[0].Series) {
					t.Errorf("switch %d series length %d != switch 0's %d", i, len(tel.Series), len(res.Telemetry[0].Series))
				}
			}
			if maxPeak != res.MaxOccupancy {
				t.Errorf("telemetry peak %d != MaxOccupancy %d", maxPeak, res.MaxOccupancy)
			}
		})
	}
}

// deepColumns are the new tail/per-switch metric columns; the
// acceptance bar is that they are selectable on every catalog entry.
var deepColumns = []string{
	"qct_p50_ms", "qct_p999_ms", "qct_p999_slow",
	"bg_p50_fct_ms", "bg_p999_fct_ms", "bg_p99_slow", "bg_p999_slow", "small_bg_p999_slow",
	"mean_occ_pct", "hot_port", "hot_port_peak_pct", "switches",
	"hot_queue", "hot_queue_peak_pct", "hot_queue_mean_pct", "min_thr_headroom_pct",
}

func TestDeepColumnsSelectableEverywhere(t *testing.T) {
	t.Parallel()
	for _, m := range deepColumns {
		if _, ok := columnFuncs[m]; !ok {
			t.Fatalf("column %q not registered", m)
		}
	}
	for _, name := range exportableNames(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, _ := Get(name)
			spec := sc.SpecAt(ScaleQuick)
			spec.Metrics = append([]string{"policy"}, deepColumns...)
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			row := res.Row(spec.Metrics)
			for i, cell := range row {
				if cell == "" || strings.HasPrefix(cell, "?") {
					t.Errorf("column %q rendered %q", spec.Metrics[i], cell)
				}
			}
		})
	}
}

// Tail quantiles surfaced as columns must be ordered: p999 >= p99 >=
// p50 on a real run's collectors (the scenario-level echo of the
// metrics property tests).
func TestTailColumnsOrdered(t *testing.T) {
	t.Parallel()
	sc, _ := Get("mixed-load-90")
	res, err := Run(sc.SpecAt(ScaleQuick))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Workloads {
		col := &res.Workloads[i].Col
		if col.Count() == 0 {
			continue
		}
		p50, p99, p999 := col.FCTQuantile(0.5), col.FCTQuantile(0.99), col.FCTQuantile(0.999)
		if p999 < p99 || p99 < p50 {
			t.Errorf("workload %s: FCT tail disordered: p50=%v p99=%v p999=%v",
				res.Workloads[i].Label, p50, p99, p999)
		}
	}
}

// The trace dump: CSV has one aligned row per sample with one column
// per switch plus an occupancy/threshold/ECN column triple per queue,
// and the sparkline plots name every switch and overlay queue.
func TestTraceOutputs(t *testing.T) {
	t.Parallel()
	sc, _ := Get("degraded-leafspine")
	res, err := Run(sc.SpecAt(ScaleQuick))
	if err != nil {
		t.Fatal(err)
	}
	tr := mustDoc(t, res, true).Trace
	var buf strings.Builder
	if err := tr.WriteCSV(&buf, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(res.Telemetry[0].Series)+1 {
		t.Fatalf("CSV has %d lines for %d samples", len(lines), len(res.Telemetry[0].Series))
	}
	queues := 0
	for i := range res.Telemetry {
		queues += len(res.Telemetry[i].Queues)
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "time_s" || len(header) != 1+len(res.Telemetry)+3*queues {
		t.Fatalf("CSV header has %d columns for %d switches and %d queues", len(header), len(res.Telemetry), queues)
	}
	// Each queue column is immediately followed by its threshold column,
	// and that by the queue's cumulative ECN-mark column.
	for i, col := range header {
		if strings.HasSuffix(col, ":thr") && header[i-1]+":thr" != col {
			t.Errorf("threshold column %q not paired with its queue column (%q precedes)", col, header[i-1])
		}
		if strings.HasSuffix(col, ":ecn") &&
			(!strings.HasSuffix(header[i-1], ":thr") ||
				strings.TrimSuffix(header[i-1], ":thr") != strings.TrimSuffix(col, ":ecn")) {
			t.Errorf("ecn column %q not paired with its threshold column (%q precedes)", col, header[i-1])
		}
	}
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != len(header) {
			t.Fatalf("ragged CSV row %q", l)
		}
	}
	plot := tr.TracePlot(40)
	for i := range res.Telemetry {
		if !strings.Contains(plot, res.Telemetry[i].Name) {
			t.Errorf("plot missing switch %s:\n%s", res.Telemetry[i].Name, plot)
		}
	}
	qplot, err := tr.QueueTracePlot(40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(qplot, ":thr") {
		t.Errorf("queue overlay plot has no threshold series:\n%s", qplot)
	}
	// The error paths that remain: a traceless document has no trace to
	// render, and a trace whose queues never buffered has no overlay.
	if doc := mustDoc(t, res, false); doc.Trace != nil {
		t.Error("Doc(false) carries a trace")
	}
	zeros := []float64{0, 0}
	idle := &TraceDoc{Samples: 2, Queues: []QueueSeriesDoc{{Name: "sw0:p0q0", Occupancy: zeros, Threshold: []float64{9, 9}, ECN: zeros}}}
	if _, err := idle.QueueTracePlot(40, 0); err == nil {
		t.Error("QueueTracePlot of a trace whose queues never buffered did not error")
	}
}
