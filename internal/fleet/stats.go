package fleet

import (
	"encoding/json"
	"net/http"
	"time"

	"occamy/internal/service"
)

// WorkerStats is one worker's contribution to the merged fleet view:
// its stats document, or the error that kept it out of the merge.
type WorkerStats struct {
	URL   string         `json:"url"`
	Stats *service.Stats `json:"stats,omitempty"`
	Error string         `json:"error,omitempty"`
}

// RouterStats is the router's own ledger within GET /v1/stats.
type RouterStats struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	Workers       int                `json:"workers"`
	Counters      Counters           `json:"counters"`
	SweepJobs     int                `json:"sweep_jobs"`
	SweepCache    service.CacheStats `json:"sweep_cache"`
}

// Stats is the router's GET /v1/stats document. The embedded
// service.Stats carries the fleet-wide sums — counters, queues, cache —
// in the exact shape one worker reports, so dashboards and the load
// generator's lenient decoder read the router like a (bigger) worker:
// the submission-ledger identities (submitted = cache_hits + coalesced
// + enqueued + refused, etc.) reconcile fleet-wide because each is a
// sum of per-worker identities. Endpoints holds the *router's* handler
// latencies; the per-worker documents ride along under "fleet".
type Stats struct {
	service.Stats
	Router RouterStats   `json:"router"`
	Fleet  []WorkerStats `json:"fleet"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	var st Stats

	fleet := make([]WorkerStats, len(rt.workers))
	var workers, weightedUtil float64
	for shard, url := range rt.workers {
		fleet[shard].URL = url
		resp, err := rt.callWorker(r.Context(), shard, http.MethodGet, "/v1/stats", nil, reqTrace(r))
		if err != nil {
			fleet[shard].Error = err.Error()
			continue
		}
		var ws service.Stats
		if err := json.Unmarshal(resp.body, &ws); err != nil {
			fleet[shard].Error = "undecodable stats: " + err.Error()
			continue
		}
		fleet[shard].Stats = &ws

		st.Workers += ws.Workers
		st.QueueLen += ws.QueueLen
		st.QueueCap += ws.QueueCap
		st.Queued += ws.Queued
		st.Running += ws.Running
		addCounters(&st.Counters, ws.Counters)
		addCache(&st.Cache, ws.Cache)
		workers += float64(ws.Workers)
		weightedUtil += float64(ws.Utilization * float64(ws.Workers))
	}
	if workers > 0 {
		st.Utilization = weightedUtil / workers
	}
	st.UptimeSeconds = time.Since(rt.started).Seconds()
	st.Endpoints = rt.api.Endpoints()
	st.Router = RouterStats{
		UptimeSeconds: st.UptimeSeconds,
		Workers:       len(rt.workers),
		Counters:      rt.snapshot(),
		SweepJobs:     rt.jobs.Len(),
		SweepCache:    rt.sweepCache.Stats(),
	}
	st.Fleet = fleet
	service.WriteJSON(w, http.StatusOK, st)
}

func addCounters(dst *service.Counters, src service.Counters) {
	dst.Submitted += src.Submitted
	dst.CacheHits += src.CacheHits
	dst.Coalesced += src.Coalesced
	dst.Enqueued += src.Enqueued
	dst.Refused += src.Refused
	dst.Done += src.Done
	dst.Failed += src.Failed
	dst.Canceled += src.Canceled
}

func addCache(dst *service.CacheStats, src service.CacheStats) {
	dst.Entries += src.Entries
	dst.Bytes += src.Bytes
	dst.Budget += src.Budget
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Evicted += src.Evicted
	dst.Restored += src.Restored
	dst.Persisted += src.Persisted
	dst.LogBytes += src.LogBytes
}

// fleetCache is the router's GET /v1/cache document: the summed
// fleet-wide result cache, the per-worker breakdowns, and the router's
// own aggregated-sweep cache.
type fleetCache struct {
	Fleet      service.CacheStats `json:"fleet"`
	Workers    []workerCache      `json:"workers"`
	SweepCache service.CacheStats `json:"sweep_cache"`
}

type workerCache struct {
	URL   string              `json:"url"`
	Cache *service.CacheStats `json:"cache,omitempty"`
	Error string              `json:"error,omitempty"`
}

func (rt *Router) handleCache(w http.ResponseWriter, r *http.Request) {
	out := fleetCache{Workers: make([]workerCache, len(rt.workers))}
	for shard, url := range rt.workers {
		out.Workers[shard].URL = url
		resp, err := rt.callWorker(r.Context(), shard, http.MethodGet, "/v1/cache", nil, reqTrace(r))
		if err != nil {
			out.Workers[shard].Error = err.Error()
			continue
		}
		var cs service.CacheStats
		if err := json.Unmarshal(resp.body, &cs); err != nil {
			out.Workers[shard].Error = "undecodable cache stats: " + err.Error()
			continue
		}
		out.Workers[shard].Cache = &cs
		addCache(&out.Fleet, cs)
	}
	out.SweepCache = rt.sweepCache.Stats()
	service.WriteJSON(w, http.StatusOK, out)
}
