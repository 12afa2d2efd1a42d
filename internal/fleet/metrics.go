package fleet

import (
	"net/http"
	"time"

	"occamy/internal/metrics"
)

// GET /metrics — Prometheus text exposition (router tier)
//
// The router's own observable state: its endpoint latency histograms
// and routing ledger, in the same exposition conventions as the worker
// page (internal/service/metrics.go), with the router-specific counters
// under an occamy_router_ prefix. Fleet-wide sums are deliberately NOT
// rendered here — a scraper should pull each worker's /metrics directly
// (the per-instance series are what aggregation rules want), while
// GET /v1/stats remains the human-facing merged JSON view.

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p metrics.Prom

	rt.api.WriteMetrics(&p)

	c := rt.snapshot()
	sweepCache := rt.sweepCache.Stats()

	p.Counter("occamy_router_ops_total", "Router operations, by kind.",
		metrics.PromSample{Labels: []metrics.Label{{Name: "op", Value: "routed"}}, Value: float64(c.Routed)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "op", Value: "proxied"}}, Value: float64(c.Proxied)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "op", Value: "sweeps"}}, Value: float64(c.Sweeps)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "op", Value: "sweep_cache_hits"}}, Value: float64(c.SweepCacheHits)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "op", Value: "sweep_points"}}, Value: float64(c.SweepPoints)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "op", Value: "batch_specs"}}, Value: float64(c.BatchSpecs)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "op", Value: "rate_limited"}}, Value: float64(c.RateLimited)},
		metrics.PromSample{Labels: []metrics.Label{{Name: "op", Value: "worker_errors"}}, Value: float64(c.WorkerErrors)})

	p.Gauge("occamy_router_workers", "Workers on the consistent-hash ring.",
		metrics.PromSample{Value: float64(len(rt.workers))})
	p.Gauge("occamy_router_sweep_jobs", "Router-owned sweep jobs in the ledger.",
		metrics.PromSample{Value: float64(rt.jobs.Len())})
	p.Gauge("occamy_uptime_seconds", "Seconds since the router started.",
		metrics.PromSample{Value: time.Since(rt.started).Seconds()})

	p.Gauge("occamy_router_sweep_cache_entries", "Aggregated-sweep cache entries resident.",
		metrics.PromSample{Value: float64(sweepCache.Entries)})
	p.Gauge("occamy_router_sweep_cache_bytes", "Aggregated-sweep cache bytes resident.",
		metrics.PromSample{Value: float64(sweepCache.Bytes)})
	p.Counter("occamy_router_sweep_cache_hits_total", "Aggregated-sweep cache hits.",
		metrics.PromSample{Value: float64(sweepCache.Hits)})
	p.Counter("occamy_router_sweep_cache_misses_total", "Aggregated-sweep cache misses.",
		metrics.PromSample{Value: float64(sweepCache.Misses)})

	w.Header().Set("Content-Type", metrics.PromContentType)
	_, _ = p.WriteTo(w)
}
