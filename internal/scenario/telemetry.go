package scenario

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"

	"occamy/internal/experiments"
	"occamy/internal/metrics"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
	"occamy/internal/trace"
)

// Deep telemetry
//
// The summary row answers "which policy wins"; the tables here answer
// "why": TailTable breaks each workload's completion times into
// quantiles (p25..p999) overall and per flow-size bucket, PerSwitchTable
// breaks the buffer dynamics down switch by switch and port by port, and
// QueueTable goes one level further, to the (port, class) queues with
// the admission policy's threshold sampled alongside — the view behind
// the paper's Fig 3/11-style occupancy-vs-threshold narratives. All
// render from the result document alone (occamy-scenario run -deep),
// and the time series behind them from its trace section (WriteCSV and
// the sparklines of -trace), so a document fetched from occamy-served
// renders exactly what the run that made it printed.

// QueueTelemetry is one (port, class) queue's recorded dynamics.
type QueueTelemetry struct {
	// Port and Class locate the queue on its switch.
	Port, Class int
	// Stats holds the queue's egress counters: transmissions out of it
	// and losses/marks of packets destined to it. Summed over a port's
	// classes they reproduce that port's PortStats exactly (drops no
	// longer attribute only to ports).
	Stats switchsim.QueueStats
	// Peak/Mean are the sampled queue-length extremes in bytes.
	Peak int
	Mean float64
	// MinHeadroom is the smallest sampled gap between the policy
	// threshold (capacity-clamped) and the queue length, in bytes —
	// negative while the queue sat over its threshold (the
	// over-allocation a preemptive policy expels).
	MinHeadroom int
	// Series is the sampled queue length in bytes; Threshold the
	// admission policy's instantaneous limit for this queue at the same
	// instants, clamped to the buffer capacity.
	Series    []float64
	Threshold []float64
	// ECNMarks is the queue's cumulative ECN-mark counter at the same
	// instants — the marking dynamics driving DCTCP's feedback loop. The
	// three series are read-only: queues share equal ones (every queue of
	// a class its threshold, every idle queue one series of zeros).
	ECNMarks []float64
}

// Label renders the queue's position as "p<port>q<class>".
func (q *QueueTelemetry) Label() string { return fmt.Sprintf("p%dq%d", q.Port, q.Class) }

// SwitchTelemetry is one switch's recorded dynamics: egress counters
// per port plus the sampled occupancy series and its per-queue
// breakdown.
type SwitchTelemetry struct {
	Name string
	// Classes is the number of traffic-class queues per port.
	Classes int
	// Ports holds the per-port egress counters; they sum to the
	// corresponding PerSwitch stats fields exactly.
	Ports []switchsim.PortStats
	// PeakOcc/MeanOcc are the sampled whole-switch occupancy extremes in
	// bytes; PortPeak/PortMean the same per egress port.
	PeakOcc  int
	MeanOcc  float64
	PortPeak []int
	PortMean []float64
	// Series is the sampled whole-switch occupancy in bytes, one entry
	// per SampleEvery tick.
	Series []float64
	// Queues holds the per-(port,class) series with thresholds, indexed
	// port*Classes+class.
	Queues []QueueTelemetry
}

// newTelemetry distills a recorder into the result's telemetry entry.
func newTelemetry(sw *switchsim.Switch, rec *switchsim.Recorder) SwitchTelemetry {
	t := SwitchTelemetry{
		Name:     sw.Name(),
		Classes:  sw.ClassesPerPort(),
		Ports:    make([]switchsim.PortStats, sw.NumPorts()),
		PeakOcc:  rec.Peak(),
		MeanOcc:  rec.Mean(),
		PortPeak: make([]int, sw.NumPorts()),
		PortMean: make([]float64, sw.NumPorts()),
		Series:   rec.Series,
		Queues:   make([]QueueTelemetry, sw.NumQueues()),
	}
	for i := 0; i < sw.NumPorts(); i++ {
		t.Ports[i] = sw.PortStats(i)
		t.PortPeak[i] = rec.PortPeak(i)
		t.PortMean[i] = rec.PortMean(i)
	}
	for q := 0; q < sw.NumQueues(); q++ {
		t.Queues[q] = QueueTelemetry{
			Port:        q / t.Classes,
			Class:       q % t.Classes,
			Stats:       sw.QueueStats(q),
			Peak:        rec.QueuePeak(q),
			Mean:        rec.QueueMean(q),
			MinHeadroom: rec.QueueMinHeadroom(q),
			Series:      rec.QueueSeries(q),
			Threshold:   rec.ThresholdSeries(q),
			ECNMarks:    rec.ECNSeries(q),
		}
	}
	return t
}

// HottestPort returns the switch's port with the highest occupancy
// peak (ties to the lowest id) and that peak in bytes; (-1, 0) on a
// portless switch.
func (t *SwitchTelemetry) HottestPort() (port, peak int) {
	port = -1
	for p, pk := range t.PortPeak {
		if pk > peak || port < 0 {
			port, peak = p, pk
		}
	}
	return port, peak
}

// HottestQueue returns the index into Queues of the queue with the
// highest length peak (ties to the lowest index) and that peak in
// bytes; (-1, 0) when the switch has no queues.
func (t *SwitchTelemetry) HottestQueue() (idx, peak int) {
	idx = -1
	for q := range t.Queues {
		if t.Queues[q].Peak > peak || idx < 0 {
			idx, peak = q, t.Queues[q].Peak
		}
	}
	return idx, peak
}

// HottestPort returns the (switch, port) with the highest sampled
// per-port occupancy peak across the run, with that peak in bytes;
// (-1, -1, 0) when nothing was recorded.
func (r *Result) HottestPort() (sw, port, peak int) {
	sw, port = -1, -1
	for i := range r.Telemetry {
		if p, pk := r.Telemetry[i].HottestPort(); pk > peak {
			sw, port, peak = i, p, pk
		}
	}
	return sw, port, peak
}

// HottestQueue returns the switch index and queue (within that switch's
// Queues) with the highest sampled length peak across the run, with the
// peak in bytes; (-1, -1, 0) when nothing was recorded.
func (r *Result) HottestQueue() (sw, queue, peak int) {
	sw, queue = -1, -1
	for i := range r.Telemetry {
		if q, pk := r.Telemetry[i].HottestQueue(); pk > peak {
			sw, queue, peak = i, q, pk
		}
	}
	return sw, queue, peak
}

// occPct renders an occupancy byte count as percent of a buffer of
// bufferBytes, or "-" when there is no buffer to be a percentage of.
// experiments.F formats magnitudes, so a negative count (threshold
// headroom) has its sign prefixed.
func occPct(bufferBytes int, bytes float64) string {
	switch {
	case bufferBytes == 0:
		return "-"
	case bytes < 0:
		return "-" + experiments.F(100*-bytes/float64(bufferBytes))
	}
	return experiments.F(100 * bytes / float64(bufferBytes))
}

// TailTable renders the quantile breakdown of every transport workload:
// one "all" row plus one row per flow-size bucket, with p25/p50/p90/
// p99/p999 completion times and slowdowns. Raw-injection workloads have
// no tails and no rows.
func (d *ResultDoc) TailTable() *experiments.Table {
	t := &experiments.Table{
		ID:      d.Name + "-tails",
		Title:   "completion-time tails by workload and flow size",
		Columns: []string{"workload", "bucket", "n"},
	}
	for _, q := range metrics.TailQuantiles {
		t.Columns = append(t.Columns, fmt.Sprintf("fct_p%s_ms", qLabel(q)))
	}
	for _, q := range metrics.TailQuantiles {
		t.Columns = append(t.Columns, fmt.Sprintf("slow_p%s", qLabel(q)))
	}
	for _, wd := range d.Workloads {
		for _, row := range wd.Tails {
			cells := []string{wd.Label, row.Label, fmt.Sprint(row.Count)}
			if row.Count == 0 {
				cells = append(cells, slices.Repeat([]string{"-"}, 2*len(metrics.TailQuantiles))...)
			}
			for _, fct := range row.FCT {
				cells = append(cells, experiments.Ms(fct))
			}
			for _, s := range row.Slowdown {
				if s == 0 {
					cells = append(cells, "-")
				} else {
					cells = append(cells, experiments.F(s))
				}
			}
			t.AddRow(cells...)
		}
	}
	return t
}

// qLabel renders a quantile as a percentile label: 0.25 → "25",
// 0.999 → "999".
func qLabel(q float64) string {
	switch q {
	case 0.999:
		return "999"
	default:
		return fmt.Sprintf("%.0f", q*100)
	}
}

// PerSwitchTable renders the buffer dynamics switch by switch: packet
// counters, losses, and the sampled occupancy peaks/means, with the
// hottest egress port of each switch (highest peak, ties to the lowest
// id) called out.
func (d *ResultDoc) PerSwitchTable() *experiments.Table {
	t := &experiments.Table{
		ID:    d.Name + "-switches",
		Title: "per-switch buffer dynamics",
		Columns: []string{"switch", "rx_pkts", "tx_pkts", "drops", "expelled", "ecn",
			"peak_occ_pct", "mean_occ_pct", "hot_port", "hot_port_peak_pct"},
	}
	for _, sw := range d.Switches {
		hotCell, hotPeakCell, hotPeak := "-", "-", -1
		for p, pd := range sw.Ports {
			if pd.PeakBytes > hotPeak {
				hotCell, hotPeakCell, hotPeak = fmt.Sprint(p), occPct(d.BufferBytes, float64(pd.PeakBytes)), pd.PeakBytes
			}
		}
		st := &sw.Stats
		t.AddRow(sw.Name,
			fmt.Sprint(st.RxPackets), fmt.Sprint(st.TxPackets),
			fmt.Sprint(st.DropsAdmission+st.DropsNoMemory), fmt.Sprint(st.DropsExpelled), fmt.Sprint(st.ECNMarked),
			occPct(d.BufferBytes, float64(sw.PeakBytes)), occPct(d.BufferBytes, sw.MeanBytes),
			hotCell, hotPeakCell)
	}
	return t
}

// QueueTable renders the per-queue buffer dynamics of every switch: the
// sampled length peak/mean, the minimum threshold headroom (how close
// the queue came to its admission limit; negative = over it), and the
// queue's egress/drop counters, for every queue that buffered or
// dropped anything during the run.
func (d *ResultDoc) QueueTable() *experiments.Table {
	t := &experiments.Table{
		ID:    d.Name + "-queues",
		Title: "per-queue buffer dynamics (queues with traffic)",
		Columns: []string{"switch", "queue", "class",
			"peak_occ_pct", "mean_occ_pct", "min_thr_headroom_pct",
			"tx_pkts", "drops", "expelled", "ecn"},
	}
	for _, sw := range d.Switches {
		for _, q := range sw.Queues {
			if q.PeakBytes == 0 && q.TxPackets == 0 && q.TxBytes == 0 && q.DropsAdmission == 0 &&
				q.DropsNoMemory == 0 && q.DropsExpelled == 0 && q.ECNMarked == 0 {
				continue
			}
			t.AddRow(sw.Name, fmt.Sprintf("p%dq%d", q.Port, q.Class), fmt.Sprint(q.Class),
				occPct(d.BufferBytes, float64(q.PeakBytes)), occPct(d.BufferBytes, q.MeanBytes),
				occPct(d.BufferBytes, float64(q.MinThresholdHeadroom)),
				fmt.Sprint(q.TxPackets), fmt.Sprint(q.DropsAdmission+q.DropsNoMemory),
				fmt.Sprint(q.DropsExpelled), fmt.Sprint(q.ECNMarked))
		}
	}
	return t
}

// WriteCSV writes the trace as CSV: a time_s column, one whole-switch
// occupancy column per switch, then three columns per queue — its
// length ("<switch>:p<P>q<C>"), its policy threshold (":thr") and its
// cumulative ECN-mark counter (":ecn"). stride keeps every stride-th
// sample (stride <= 1 keeps all) — real samples with their exact
// timestamps, the bound that keeps paper-scale trace files manageable.
func (t *TraceDoc) WriteCSV(w io.Writer, stride int) error {
	times := make([]float64, t.Samples)
	for i := range times {
		times[i] = (sim.Time(i) * t.SampleEvery).Seconds()
	}
	series := append(make([]trace.Series, 0, len(t.Switches)+3*len(t.Queues)), t.Switches...)
	for _, q := range t.Queues {
		series = append(series,
			trace.Series{Name: q.Name, Values: q.Occupancy},
			trace.Series{Name: q.Name + ":thr", Values: q.Threshold},
			trace.Series{Name: q.Name + ":ecn", Values: q.ECN})
	}
	return trace.WriteCSV(w, times, series, stride)
}

// TracePlot renders the per-switch occupancy series as labeled
// sparklines on a shared scale (width cells; 0 = full resolution).
func (t *TraceDoc) TracePlot(width int) string { return trace.Plot(t.Switches, width) }

// QueueTracePlot renders occupancy-vs-threshold overlays for the top
// queues by length peak (the maximum of the series, as the recorder's
// peak is; ties keep trace order): each contributes its occupancy
// sparkline and its threshold sparkline on a shared scale. top bounds
// the queue count (0 = all queues that buffered anything).
func (t *TraceDoc) QueueTracePlot(width, top int) (string, error) {
	type ranked struct {
		q    *QueueSeriesDoc
		peak float64
	}
	var hot []ranked
	for i := range t.Queues {
		if peak := slices.Max(t.Queues[i].Occupancy); peak > 0 {
			hot = append(hot, ranked{&t.Queues[i], peak})
		}
	}
	if len(hot) == 0 {
		return "", errors.New("trace: no queue buffered any traffic")
	}
	slices.SortStableFunc(hot, func(a, b ranked) int { return cmp.Compare(b.peak, a.peak) })
	if top > 0 && len(hot) > top {
		hot = hot[:top]
	}
	series := make([]trace.Series, 0, 2*len(hot))
	for _, h := range hot {
		series = append(series,
			trace.Series{Name: h.q.Name, Values: h.q.Occupancy},
			trace.Series{Name: h.q.Name + ":thr", Values: h.q.Threshold})
	}
	return trace.Plot(series, width), nil
}
