package scenario

import (
	"fmt"
	"io"
	"sort"

	"occamy/internal/experiments"
	"occamy/internal/metrics"
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
// render from the Result alone, so sweeps and file-based runs get them
// for free (occamy-scenario run -deep), and the time series behind them
// dump to CSV/sparklines with -trace.

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

// occPct renders an occupancy byte count as percent of buffer capacity,
// or "-" when the run has no buffer to be a percentage of.
func (r *Result) occPct(bytes float64) string {
	if r.BufferBytes == 0 {
		return "-"
	}
	return experiments.F(100 * bytes / float64(r.BufferBytes))
}

// signedOccPct is occPct for quantities that may be negative (threshold
// headroom): experiments.F formats magnitudes, so the sign is prefixed.
func (r *Result) signedOccPct(bytes float64) string {
	if r.BufferBytes == 0 {
		return "-"
	}
	if bytes < 0 {
		return "-" + experiments.F(100*-bytes/float64(r.BufferBytes))
	}
	return experiments.F(100 * bytes / float64(r.BufferBytes))
}

// TailTable renders the quantile breakdown of every transport workload:
// one "all" row plus one row per flow-size bucket, with p25/p50/p90/
// p99/p999 completion times and slowdowns. Raw-injection workloads have
// no completions and are skipped.
func (r *Result) TailTable() *experiments.Table {
	t := &experiments.Table{
		ID:      r.Spec.Name + "-tails",
		Title:   "completion-time tails by workload and flow size",
		Columns: []string{"workload", "bucket", "n"},
	}
	for _, q := range metrics.TailQuantiles {
		t.Columns = append(t.Columns, fmt.Sprintf("fct_p%s_ms", qLabel(q)))
	}
	for _, q := range metrics.TailQuantiles {
		t.Columns = append(t.Columns, fmt.Sprintf("slow_p%s", qLabel(q)))
	}
	for i := range r.Workloads {
		ws := &r.Workloads[i]
		if ws.Kind == WLCBR || ws.Kind == WLBurst {
			continue
		}
		for _, row := range ws.Col.TailRows(metrics.DefaultSizeBuckets, metrics.TailQuantiles) {
			cells := []string{ws.Label, row.Label, fmt.Sprint(row.Count)}
			for _, fct := range row.FCT {
				if row.Count == 0 {
					cells = append(cells, "-")
				} else {
					cells = append(cells, experiments.Ms(fct))
				}
			}
			for _, s := range row.Slowdown {
				if row.Count == 0 || s == 0 {
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
// hottest egress port of each switch called out.
func (r *Result) PerSwitchTable() *experiments.Table {
	t := &experiments.Table{
		ID:    r.Spec.Name + "-switches",
		Title: "per-switch buffer dynamics",
		Columns: []string{"switch", "rx_pkts", "tx_pkts", "drops", "expelled", "ecn",
			"peak_occ_pct", "mean_occ_pct", "hot_port", "hot_port_peak_pct"},
	}
	for i, st := range r.PerSwitch {
		tel := r.Telemetry[i]
		hot, hotPeak := tel.HottestPort()
		hotCell, hotPeakCell := "-", "-"
		if hot >= 0 {
			hotCell, hotPeakCell = fmt.Sprint(hot), r.occPct(float64(hotPeak))
		}
		t.AddRow(tel.Name,
			fmt.Sprint(st.RxPackets), fmt.Sprint(st.TxPackets),
			fmt.Sprint(st.Drops()), fmt.Sprint(st.DropsExpelled), fmt.Sprint(st.ECNMarked),
			r.occPct(float64(tel.PeakOcc)), r.occPct(tel.MeanOcc),
			hotCell, hotPeakCell)
	}
	return t
}

// QueueTable renders the per-queue buffer dynamics of every switch: the
// sampled length peak/mean, the minimum threshold headroom (how close
// the queue came to its admission limit; negative = over it), and the
// queue's egress/drop counters, for every queue that buffered or
// dropped anything during the run.
func (r *Result) QueueTable() *experiments.Table {
	t := &experiments.Table{
		ID:    r.Spec.Name + "-queues",
		Title: "per-queue buffer dynamics (queues with traffic)",
		Columns: []string{"switch", "queue", "class",
			"peak_occ_pct", "mean_occ_pct", "min_thr_headroom_pct",
			"tx_pkts", "drops", "expelled", "ecn"},
	}
	for i := range r.Telemetry {
		tel := &r.Telemetry[i]
		for q := range tel.Queues {
			qt := &tel.Queues[q]
			if qt.Peak == 0 && qt.Stats == (switchsim.QueueStats{}) {
				continue
			}
			t.AddRow(tel.Name, qt.Label(), fmt.Sprint(qt.Class),
				r.occPct(float64(qt.Peak)), r.occPct(qt.Mean),
				r.signedOccPct(float64(qt.MinHeadroom)),
				fmt.Sprint(qt.Stats.TxPackets), fmt.Sprint(qt.Stats.Drops()),
				fmt.Sprint(qt.Stats.DropsExpelled), fmt.Sprint(qt.Stats.ECNMarked))
		}
	}
	return t
}

// TraceSeries returns the aligned occupancy time series of every
// switch: the recorded timestamps in seconds plus one named series per
// switch.
func (r *Result) TraceSeries() (times []float64, series []trace.Series) {
	if len(r.Telemetry) == 0 {
		return nil, nil
	}
	times = make([]float64, len(r.SampleTimes))
	for i, t := range r.SampleTimes {
		times[i] = t.Seconds()
	}
	for _, tel := range r.Telemetry {
		series = append(series, trace.Series{Name: tel.Name, Values: tel.Series})
	}
	return times, series
}

// QueueTraceSeries returns the aligned per-queue series of every
// switch: for each (port, class) queue, its occupancy series
// ("<switch>:p<P>q<C>") immediately followed by its policy-threshold
// series ("<switch>:p<P>q<C>:thr") — the Fig 3/11-style overlay pairs —
// and its cumulative ECN-mark series ("<switch>:p<P>q<C>:ecn").
func (r *Result) QueueTraceSeries() (times []float64, series []trace.Series) {
	if len(r.Telemetry) == 0 {
		return nil, nil
	}
	times = make([]float64, len(r.SampleTimes))
	for i, t := range r.SampleTimes {
		times[i] = t.Seconds()
	}
	for _, tel := range r.Telemetry {
		for q := range tel.Queues {
			qt := &tel.Queues[q]
			base := tel.Name + ":" + qt.Label()
			series = append(series,
				trace.Series{Name: base, Values: qt.Series},
				trace.Series{Name: base + ":thr", Values: qt.Threshold},
				trace.Series{Name: base + ":ecn", Values: qt.ECNMarks})
		}
	}
	return times, series
}

// WriteTraceCSV dumps the recorded time series as CSV: one whole-switch
// occupancy column per switch, then per-queue occupancy, threshold, and
// cumulative ECN-mark columns for every queue of every switch.
func (r *Result) WriteTraceCSV(w io.Writer) error {
	return r.WriteTraceCSVStride(w, 1)
}

// WriteTraceCSVStride is WriteTraceCSV keeping only every stride-th
// sample (stride <= 1 keeps all) — the bound that keeps paper-scale
// trace files manageable: a run records ~1000 aligned samples per
// switch and two columns per (port, class) queue, so a 256-port sweep
// at full resolution is tens of MB of CSV.
func (r *Result) WriteTraceCSVStride(w io.Writer, stride int) error {
	times, series := r.TraceSeries()
	if len(series) == 0 {
		return fmt.Errorf("scenario %q: no occupancy trace recorded", r.Spec.Name)
	}
	_, qseries := r.QueueTraceSeries()
	times, series = strideSeries(times, append(series, qseries...), stride)
	return trace.WriteCSV(w, times, series)
}

// strideSeries keeps every stride-th element of the aligned times and
// series (stride <= 1 returns the input unchanged). Unlike
// trace.Downsample it subsamples rather than bucket-averages, so the
// surviving rows are real recorded samples with their exact timestamps.
func strideSeries(times []float64, series []trace.Series, stride int) ([]float64, []trace.Series) {
	if stride <= 1 {
		return times, series
	}
	keep := func(v []float64) []float64 {
		out := make([]float64, 0, (len(v)+stride-1)/stride)
		for i := 0; i < len(v); i += stride {
			out = append(out, v[i])
		}
		return out
	}
	strided := make([]trace.Series, len(series))
	for i, s := range series {
		strided[i] = trace.Series{Name: s.Name, Values: keep(s.Values)}
	}
	return keep(times), strided
}

// TracePlot renders the per-switch occupancy series as labeled
// sparklines on a shared scale (width cells; 0 = full resolution). Like
// WriteTraceCSV it errors when the run recorded no trace.
func (r *Result) TracePlot(width int) (string, error) {
	_, series := r.TraceSeries()
	if len(series) == 0 {
		return "", fmt.Errorf("scenario %q: no occupancy trace recorded", r.Spec.Name)
	}
	return trace.Plot(series, width), nil
}

// QueueTracePlot renders occupancy-vs-threshold overlays for the top
// (by length peak) queues across all switches: each queue contributes
// its occupancy sparkline and its threshold sparkline on a shared
// scale. top bounds the queue count (0 = all queues with traffic).
func (r *Result) QueueTracePlot(width, top int) (string, error) {
	_, all := r.QueueTraceSeries()
	if len(all) == 0 {
		return "", fmt.Errorf("scenario %q: no occupancy trace recorded", r.Spec.Name)
	}
	type cand struct {
		sw, q, peak int
	}
	var cands []cand
	for i := range r.Telemetry {
		for q := range r.Telemetry[i].Queues {
			if pk := r.Telemetry[i].Queues[q].Peak; pk > 0 {
				cands = append(cands, cand{i, q, pk})
			}
		}
	}
	// Descending peak, ties keeping switch/queue order.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].peak > cands[j].peak })
	if top > 0 && len(cands) > top {
		cands = cands[:top]
	}
	var series []trace.Series
	for _, c := range cands {
		tel := &r.Telemetry[c.sw]
		qt := &tel.Queues[c.q]
		base := tel.Name + ":" + qt.Label()
		series = append(series,
			trace.Series{Name: base, Values: qt.Series},
			trace.Series{Name: base + ":thr", Values: qt.Threshold})
	}
	if len(series) == 0 {
		return "", fmt.Errorf("scenario %q: no queue buffered any traffic", r.Spec.Name)
	}
	return trace.Plot(series, width), nil
}
