package service

import (
	"net/http"

	"occamy/internal/metrics"
)

// GET /metrics — Prometheus text exposition (worker tier)
//
// The same state GET /v1/stats reports as a JSON document, rendered in
// the exposition format a scraper ingests: the per-endpoint latency
// histograms as cumulative-bucket histogram families, the submission
// ledger as counters, and the queue/worker instant as gauges. Counter
// values come from the same Stats() snapshot as /v1/stats, so the two
// endpoints reconcile (the ledger identities in stats.go hold here
// too). Families render in a fixed order — scrapes of an idle service
// are byte-stable, which the tests lean on.

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var p metrics.Prom

	s.api.WriteMetrics(&p)

	c := st.Counters
	p.Counter("occamy_jobs_submitted_total", "Validated submissions (cache hits + coalesced + enqueued + refused).",
		metrics.PromSample{Value: float64(c.Submitted)})
	p.Counter("occamy_submissions_total", "Submission outcomes, by result.",
		metrics.PromSample{Labels: []metrics.Label{{Name: "result", Value: "cache_hit"}}, Value: float64(c.CacheHits)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "result", Value: "coalesced"}}, Value: float64(c.Coalesced)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "result", Value: "enqueued"}}, Value: float64(c.Enqueued)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "result", Value: "refused"}}, Value: float64(c.Refused)})
	p.Counter("occamy_jobs_finished_total", "Terminal job transitions, by final state.",
		metrics.PromSample{Labels: []metrics.Label{{Name: "state", Value: "done"}}, Value: float64(c.Done)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "state", Value: "failed"}}, Value: float64(c.Failed)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "state", Value: "canceled"}}, Value: float64(c.Canceled)})

	p.Gauge("occamy_jobs", "Jobs currently in a live state.",
		metrics.PromSample{Labels: []metrics.Label{{Name: "state", Value: "queued"}}, Value: float64(st.Queued)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "state", Value: "running"}}, Value: float64(st.Running)})
	p.Gauge("occamy_queue_depth", "Jobs in the submission queue right now.",
		metrics.PromSample{Value: float64(st.QueueLen)})
	p.Gauge("occamy_queue_capacity", "Submission queue capacity.",
		metrics.PromSample{Value: float64(st.QueueCap)})
	p.Gauge("occamy_workers", "Simulation worker-pool size.",
		metrics.PromSample{Value: float64(st.Workers)})
	p.Gauge("occamy_utilization_ratio", "Cumulative fraction of worker-seconds spent simulating (0..1).",
		metrics.PromSample{Value: st.Utilization})
	p.Gauge("occamy_uptime_seconds", "Seconds since the service started.",
		metrics.PromSample{Value: st.UptimeSeconds})

	p.Gauge("occamy_cache_entries", "Result-cache entries resident.",
		metrics.PromSample{Value: float64(st.Cache.Entries)})
	p.Gauge("occamy_cache_bytes", "Result-cache bytes resident.",
		metrics.PromSample{Value: float64(st.Cache.Bytes)})
	p.Gauge("occamy_cache_budget_bytes", "Result-cache memory budget.",
		metrics.PromSample{Value: float64(st.Cache.Budget)})
	p.Counter("occamy_cache_hits_total", "Result-cache hits.",
		metrics.PromSample{Value: float64(st.Cache.Hits)})
	p.Counter("occamy_cache_misses_total", "Result-cache misses.",
		metrics.PromSample{Value: float64(st.Cache.Misses)})
	p.Counter("occamy_cache_evictions_total", "Result-cache evictions.",
		metrics.PromSample{Value: float64(st.Cache.Evicted)})
	p.Counter("occamy_cache_restored_total", "Result-cache entries restored from disk.",
		metrics.PromSample{Value: float64(st.Cache.Restored)})
	p.Gauge("occamy_cache_persisted", "Result-cache records indexed in the log.",
		metrics.PromSample{Value: float64(st.Cache.Persisted)})
	p.Gauge("occamy_cache_log_bytes", "Result-cache log length in bytes.",
		metrics.PromSample{Value: float64(st.Cache.LogBytes)})

	w.Header().Set("Content-Type", metrics.PromContentType)
	_, _ = p.WriteTo(w)
}
