package scenario

import (
	"fmt"
	"sort"

	"occamy/internal/experiments"
	"occamy/internal/metrics"
)

// Metric columns
//
// A spec's Metrics field selects summary-table columns by name; nil picks
// a default set from the workload mix. Each column is a pure function of
// the Result, so sweeps produce one comparable row per grid point.

// Table is the aligned-text output table shared with the figure
// harnesses.
type Table = experiments.Table

// incastStats returns the gating (or first) incast workload's stats.
func (r *Result) incastStats() *WorkloadStats {
	for i := range r.Workloads {
		if r.Workloads[i].Kind == WLIncast {
			return &r.Workloads[i]
		}
	}
	return nil
}

// loadStats returns the first load-bearing (non-incast, non-raw)
// workload's stats: the "background" of the summary columns.
func (r *Result) loadStats() *WorkloadStats {
	for i := range r.Workloads {
		switch r.Workloads[i].Kind {
		case WLBackground, WLPermutation, WLAllToAll, WLAllReduce:
			return &r.Workloads[i]
		}
	}
	return nil
}

// burstLoss returns the aggregate loss fraction of raw burst traffic.
func (r *Result) burstLoss() float64 {
	var sent, drops int64
	for i := range r.Workloads {
		if r.Workloads[i].Kind == WLBurst {
			sent += r.Workloads[i].SentPackets
			drops += r.Workloads[i].Drops
		}
	}
	if sent == 0 {
		return 0
	}
	return float64(drops) / float64(sent)
}

// columnFuncs maps metric names to their cell renderers.
var columnFuncs = map[string]func(*Result) string{
	"policy": func(r *Result) string { return r.Spec.Policy.Label() },
	"qct_avg_ms": func(r *Result) string {
		if q := r.incastStats(); q != nil {
			return experiments.Ms(q.Col.MeanFCT())
		}
		return "-"
	},
	"qct_p99_ms": func(r *Result) string {
		if q := r.incastStats(); q != nil {
			return experiments.Ms(q.Col.P99FCT())
		}
		return "-"
	},
	"qct_avg_slow": func(r *Result) string {
		if q := r.incastStats(); q != nil {
			return experiments.F(q.Col.MeanSlowdown())
		}
		return "-"
	},
	"qct_p99_slow": func(r *Result) string {
		if q := r.incastStats(); q != nil {
			return experiments.F(q.Col.P99Slowdown())
		}
		return "-"
	},
	"queries_done": func(r *Result) string {
		if q := r.incastStats(); q != nil {
			return fmt.Sprint(q.Done)
		}
		return "-"
	},
	"rtos": func(r *Result) string {
		if q := r.incastStats(); q != nil {
			return fmt.Sprint(q.Timeouts)
		}
		return "-"
	},
	"bg_avg_fct_ms": func(r *Result) string {
		if b := r.loadStats(); b != nil {
			return experiments.Ms(b.Col.MeanFCT())
		}
		return "-"
	},
	"bg_p99_fct_ms": func(r *Result) string {
		if b := r.loadStats(); b != nil {
			return experiments.Ms(b.Col.P99FCT())
		}
		return "-"
	},
	"bg_avg_slow": func(r *Result) string {
		if b := r.loadStats(); b != nil {
			return experiments.F(b.Col.MeanSlowdown())
		}
		return "-"
	},
	"small_bg_p99_slow": func(r *Result) string {
		if b := r.loadStats(); b != nil {
			return experiments.F(b.Col.Small(100_000).P99Slowdown())
		}
		return "-"
	},
	"qct_p50_ms": func(r *Result) string {
		if q := r.incastStats(); q != nil {
			return experiments.Ms(q.Col.FCTQuantile(0.50))
		}
		return "-"
	},
	"qct_p999_ms": func(r *Result) string {
		if q := r.incastStats(); q != nil {
			return experiments.Ms(q.Col.FCTQuantile(0.999))
		}
		return "-"
	},
	"qct_p999_slow": func(r *Result) string {
		if q := r.incastStats(); q != nil {
			return experiments.F(q.Col.SlowdownQuantile(0.999))
		}
		return "-"
	},
	"bg_p50_fct_ms": func(r *Result) string {
		if b := r.loadStats(); b != nil {
			return experiments.Ms(b.Col.FCTQuantile(0.50))
		}
		return "-"
	},
	"bg_p999_fct_ms": func(r *Result) string {
		if b := r.loadStats(); b != nil {
			return experiments.Ms(b.Col.FCTQuantile(0.999))
		}
		return "-"
	},
	"bg_p99_slow": func(r *Result) string {
		if b := r.loadStats(); b != nil {
			return experiments.F(b.Col.SlowdownQuantile(0.99))
		}
		return "-"
	},
	"bg_p999_slow": func(r *Result) string {
		if b := r.loadStats(); b != nil {
			return experiments.F(b.Col.SlowdownQuantile(0.999))
		}
		return "-"
	},
	"small_bg_p999_slow": func(r *Result) string {
		if b := r.loadStats(); b != nil {
			return experiments.F(b.Col.Small(100_000).SlowdownQuantile(0.999))
		}
		return "-"
	},
	"delivered_mb": func(r *Result) string { return experiments.F(float64(r.Total.TxBytes) / 1e6) },
	"drops":        func(r *Result) string { return fmt.Sprint(r.Total.Drops()) },
	"expelled":     func(r *Result) string { return fmt.Sprint(r.Total.DropsExpelled) },
	"ecn_marked":   func(r *Result) string { return fmt.Sprint(r.Total.ECNMarked) },
	"burst_loss":   func(r *Result) string { return experiments.F(r.burstLoss()) },
	"max_occ_pct":  func(r *Result) string { return occPct(r.BufferBytes, float64(r.MaxOccupancy)) },
	"mean_occ_pct": func(r *Result) string {
		if len(r.Telemetry) == 0 {
			return "-"
		}
		sum := 0.0
		for i := range r.Telemetry {
			sum += r.Telemetry[i].MeanOcc
		}
		return occPct(r.BufferBytes, sum/float64(len(r.Telemetry)))
	},
	"hot_port": func(r *Result) string {
		sw, port, _ := r.HottestPort()
		if sw < 0 {
			return "-"
		}
		return fmt.Sprintf("%s:%d", r.Telemetry[sw].Name, port)
	},
	"hot_port_peak_pct": func(r *Result) string {
		sw, _, peak := r.HottestPort()
		if sw < 0 {
			return "-"
		}
		return occPct(r.BufferBytes, float64(peak))
	},
	"hot_queue": func(r *Result) string {
		sw, q, _ := r.HottestQueue()
		if sw < 0 {
			return "-"
		}
		return fmt.Sprintf("%s:%s", r.Telemetry[sw].Name, r.Telemetry[sw].Queues[q].Label())
	},
	"hot_queue_peak_pct": func(r *Result) string {
		sw, _, peak := r.HottestQueue()
		if sw < 0 {
			return "-"
		}
		return occPct(r.BufferBytes, float64(peak))
	},
	"hot_queue_mean_pct": func(r *Result) string {
		sw, q, _ := r.HottestQueue()
		if sw < 0 {
			return "-"
		}
		return occPct(r.BufferBytes, r.Telemetry[sw].Queues[q].Mean)
	},
	"min_thr_headroom_pct": func(r *Result) string {
		min, found := 0, false
		for i := range r.Telemetry {
			for q := range r.Telemetry[i].Queues {
				qt := &r.Telemetry[i].Queues[q]
				if len(qt.Series) == 0 {
					continue
				}
				if !found || qt.MinHeadroom < min {
					min, found = qt.MinHeadroom, true
				}
			}
		}
		if !found {
			return "-"
		}
		return occPct(r.BufferBytes, float64(min))
	},
	"switches": func(r *Result) string { return fmt.Sprint(len(r.PerSwitch)) },
	// Fig 7: utilization (percent) at the instant of each non-expulsion
	// drop. Selecting any of these installs the on-drop sampler.
	"drop_buf_util_p25":   func(r *Result) string { return utilQuantile(r.DropBufUtil, 0.25) },
	"drop_buf_util_p50":   func(r *Result) string { return utilQuantile(r.DropBufUtil, 0.50) },
	"drop_buf_util_p75":   func(r *Result) string { return utilQuantile(r.DropBufUtil, 0.75) },
	"drop_buf_util_p99":   func(r *Result) string { return utilQuantile(r.DropBufUtil, 0.99) },
	"drop_membw_util_p25": func(r *Result) string { return utilQuantile(r.DropMemBWUtil, 0.25) },
	"drop_membw_util_p50": func(r *Result) string { return utilQuantile(r.DropMemBWUtil, 0.50) },
	"drop_membw_util_p75": func(r *Result) string { return utilQuantile(r.DropMemBWUtil, 0.75) },
	"drop_membw_util_p99": func(r *Result) string { return utilQuantile(r.DropMemBWUtil, 0.99) },
	"link_drops": func(r *Result) string {
		if len(r.FaultLinks) == 0 {
			return "-"
		}
		return fmt.Sprint(r.LinkFaultTotals().Dropped)
	},
	"link_dups": func(r *Result) string {
		if len(r.FaultLinks) == 0 {
			return "-"
		}
		return fmt.Sprint(r.LinkFaultTotals().Duplicated)
	},
	"link_reorders": func(r *Result) string {
		if len(r.FaultLinks) == 0 {
			return "-"
		}
		return fmt.Sprint(r.LinkFaultTotals().Reordered)
	},
}

// utilQuantile renders quantile q of an on-drop utilization sample set
// as a percentage (0 when nothing dropped).
func utilQuantile(samples []float64, q float64) string {
	return experiments.F(100 * metrics.Percentile(samples, q))
}

// MetricNames returns every selectable column, sorted.
func MetricNames() []string {
	names := make([]string, 0, len(columnFuncs))
	for n := range columnFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultMetrics picks summary columns from the workload mix.
func DefaultMetrics(spec Spec) []string {
	if spec.Raw() {
		return []string{"policy", "delivered_mb", "burst_loss", "drops", "expelled", "max_occ_pct"}
	}
	cols := []string{"policy"}
	hasIncast, hasLoad := false, false
	for _, w := range spec.Workloads {
		switch w.Kind {
		case WLIncast:
			hasIncast = true
		case WLBackground, WLPermutation, WLAllToAll, WLAllReduce:
			hasLoad = true
		}
	}
	if hasIncast {
		cols = append(cols, "qct_avg_ms", "qct_p99_ms", "qct_avg_slow", "rtos")
	}
	if hasLoad {
		cols = append(cols, "bg_avg_fct_ms", "small_bg_p99_slow")
	}
	cols = append(cols, "drops", "expelled", "max_occ_pct")
	if spec.Faults != nil {
		cols = append(cols, "link_drops", "link_dups", "link_reorders")
	}
	return cols
}

// metricsOf resolves the effective column list of a spec.
func metricsOf(spec Spec) []string {
	if len(spec.Metrics) > 0 {
		return spec.Metrics
	}
	return DefaultMetrics(spec)
}

// cell renders one metric column for this result.
func (r *Result) cell(metric string) string { return r.Row([]string{metric})[0] }

// Row renders the selected metric cells for this result.
func (r *Result) Row(metrics []string) []string {
	cells := make([]string, len(metrics))
	for i, m := range metrics {
		fn, ok := columnFuncs[m]
		if !ok {
			cells[i] = "?" + m
			continue
		}
		cells[i] = fn(r)
	}
	return cells
}

// Table renders a one-row summary of a single run.
func (r *Result) Table() *experiments.Table {
	return Summarize(r.Spec.Name, r.Spec.Title, []string{r.Spec.Name}, []*Result{r}, metricsOf(r.Spec))
}

// Summarize renders one row per result, prefixed with its label (sweeps
// use the swept field values as labels).
func Summarize(id, title string, labels []string, results []*Result, metrics []string) *experiments.Table {
	t := &experiments.Table{
		ID:      id,
		Title:   title,
		Columns: append([]string{"scenario"}, metrics...),
	}
	for i, r := range results {
		if r == nil {
			continue
		}
		t.AddRow(append([]string{labels[i]}, r.Row(metrics)...)...)
	}
	return t
}
