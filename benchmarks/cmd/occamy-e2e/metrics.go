package main

import (
	"math"
	"slices"
)

// metricDef declares one reported number. The tables below are the
// program's copy of BENCHMARK.json; TestBenchmarkJSONAgrees keeps the
// two identical.
type metricDef struct {
	name, unit string
	higher     bool    // better when higher
	bound      float64 // end-to-end only: share by which it may worsen
}

// endToEnd is reported by an untraced run, the same seven on every
// workload. Each time-based metric is the best value over the timed
// passes (see endToEndMetrics). A bound is at least three times the
// widest spread (interquartile distance over the median, ten runs on ten
// seeds) the metric showed on any workload in CALIBRATION.md.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"job_ms_p50", "ms", false, 0.20},
	{"job_ms_p90", "ms", false, 0.25},
	{"jobs_per_s", "1/s", true, 0.20},
	{"cpu_ms_per_job", "ms", false, 0.20},
	{"alloc_mb_per_job", "MB", false, 0.02},
	{"rss_peak_mb", "MB", false, 0.25},
}

// simLongKinds names the ten sim-long job kinds; each gets its own
// scenario.job_ms.<kind> metric.
var simLongKinds = []simKind{
	{"buffer-choking", "full", "", 1, false},
	{"wan-degraded-leafspine", "full", "", 1, false},
	{"degraded-leafspine", "full", "dt", 1, false},
	{"priority-inversion-8", "quick", "", 1, false},
	{"multiclass-fabric-drr", "quick", "", 1, false},
	{"mixed-load-90", "quick", "dt", 1, false},
	{"duplicate-storm", "full", "pushout", 1, false},
	{"jittery-allreduce", "quick", "abm", 1, false},
	// The heavy family (20 % of the jobs, so the p90 falls inside it):
	// spec seed 13 gives the largest event count of seeds 1..16, which
	// keeps both jobs above every light one.
	{"incast-storm-256", "quick", "occamy", 13, true},
	{"incast-storm-256", "quick", "dt", 13, true},
}

// perLayer is reported by a traced run. A metric whose layer the
// workload does not cross reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "scenario.parse_ms", unit: "ms"},
		{name: "scenario.fingerprint_ms", unit: "ms"},
		{name: "scenario.build_ms", unit: "ms"},
		{name: "scenario.loop_ms", unit: "ms"},
		{name: "scenario.collect_ms", unit: "ms"},
		{name: "scenario.doc_ms", unit: "ms"},
		{name: "scenario.encode_ms", unit: "ms"},
		{name: "scenario.decode_ms", unit: "ms"},
		{name: "scenario.build_alloc_mb", unit: "MB"},
		{name: "scenario.loop_alloc_mb", unit: "MB"},
		{name: "scenario.encode_alloc_mb", unit: "MB"},
		{name: "scenario.result_kb", unit: "KB"},
		{name: "scenario.fixed_share", unit: "%"},
		{name: "scenario.sweep_speedup_j2", unit: "x", higher: true},
	}
	for _, k := range simLongKinds {
		defs = append(defs, metricDef{name: "scenario.job_ms." + k.label(), unit: "ms"})
	}
	return append(defs, []metricDef{
		{name: "sim.events_per_job", unit: "count"},
		{name: "sim.events_per_s", unit: "1/s", higher: true},
		{name: "sim.ns_per_event", unit: "ns"},
		{name: "sim.timer_churn_ns", unit: "ns"},
		{name: "switchsim.fwd_ns_per_pkt.dt", unit: "ns"},
		{name: "switchsim.fwd_ns_per_pkt.occamy", unit: "ns"},
		{name: "switchsim.fwd_ns_per_pkt.pushout", unit: "ns"},
		{name: "switchsim.drop_share", unit: "%"},
		{name: "switchsim.expelled_share", unit: "%"},
		{name: "switchsim.ecn_share", unit: "%"},
		{name: "switchsim.recorder_samples_per_job", unit: "count"},
		{name: "transport.timeouts_per_job", unit: "count"},
		{name: "linkfault.drops_per_job", unit: "count"},
		{name: "linkfault.dups_per_job", unit: "count"},
		{name: "service.post_ms", unit: "ms"},
		{name: "service.get_ms", unit: "ms"},
		{name: "service.handler_post_ms", unit: "ms"},
		{name: "service.handler_get_ms", unit: "ms"},
		{name: "service.relay_kb_per_job", unit: "KB"},
		{name: "service.cache_hit_share", unit: "%", higher: true},
		{name: "service.submit_hit_us", unit: "us"},
		{name: "service.cache_get_us", unit: "us"},
		{name: "service.queue_wait_ms", unit: "ms"},
		{name: "service.run_ms", unit: "ms"},
		{name: "service.polls_per_job", unit: "count"},
		{name: "service.cache_put_mem_us", unit: "us"},
		{name: "service.cache_put_dir_us", unit: "us"},
		{name: "service.cache_evictions_per_job", unit: "count"},
		{name: "service.refused_share", unit: "%"},
		{name: "fleet.ring_lookup_ns", unit: "ns"},
		{name: "fleet.hop_ms", unit: "ms"},
		{name: "fleet.single_ms", unit: "ms"},
		{name: "fleet.sweep_ms", unit: "ms"},
		{name: "fleet.worker_calls_per_sweep", unit: "count"},
		{name: "fleet.shard_share_max", unit: "%"},
		{name: "fleet.worker_errors", unit: "count"},
		{name: "harness.host_noise_pct", unit: "%"},
		{name: "harness.trace_overhead_pct", unit: "%"},
	}...)
}()

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least share p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value (the mean of the middle two for an
// even count) without reordering vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// best is the best value over the passes: interference on a shared host
// only ever slows a pass, so the minimum of a cost (the maximum of a
// rate) is the least disturbed reading.
func best(vs []float64, higher bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	if higher {
		return slices.Max(vs)
	}
	return slices.Min(vs)
}

// ratio is a/b, and 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
