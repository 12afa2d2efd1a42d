package service

import (
	"math"
	"time"

	"occamy/internal/metrics"
)

// Service-side SLO observability (GET /v1/stats)
//
// The client of a load test can only see submit-to-done latency from
// the outside; these stats expose what it can't: per-endpoint handler
// latency histograms, the queue and worker state at this instant, and
// the cumulative submission ledger. The ledger is designed to reconcile
// exactly with a load generator's client-side view:
//
//	submitted == cache_hits + coalesced + enqueued + refused
//	enqueued  == done + failed + canceled + queued + running
//
// (Both identities hold at any quiescent instant; mid-flight reads can
// be off by the jobs currently transitioning.)

// Counters is the cumulative submission ledger.
type Counters struct {
	// Submitted counts every validated Submit/SubmitSweep call.
	Submitted int64 `json:"submitted"`
	// CacheHits are submissions answered from the result cache (born
	// done, no simulation).
	CacheHits int64 `json:"cache_hits"`
	// Coalesced are submissions that joined an identical in-flight job.
	Coalesced int64 `json:"coalesced"`
	// Enqueued are submissions that became a real queued job.
	Enqueued int64 `json:"enqueued"`
	// Refused are submissions rejected for capacity (queue full).
	Refused int64 `json:"refused"`
	// Done/Failed/Canceled count terminal transitions of enqueued jobs.
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
}

// Stats is the GET /v1/stats document.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`

	// QueueLen/QueueCap are the channel backlog; Queued/Running count
	// jobs in those ledger states right now.
	QueueLen int   `json:"queue_len"`
	QueueCap int   `json:"queue_cap"`
	Queued   int64 `json:"queued"`
	Running  int64 `json:"running"`

	// Utilization is the cumulative fraction of worker-seconds spent
	// simulating since the service started (0..1).
	Utilization float64 `json:"utilization"`

	Counters Counters `json:"counters"`

	// Endpoints maps HTTP route patterns to handler-latency summaries.
	Endpoints map[string]metrics.HistSnapshot `json:"endpoints"`

	Cache CacheStats `json:"cache"`
}

// Stats snapshots the service's observability state.
func (s *Service) Stats() Stats {
	now := time.Now()
	l := s.jobs
	l.mu.Lock()
	st := Stats{
		UptimeSeconds: now.Sub(s.started).Seconds(),
		Workers:       s.workers,
		QueueLen:      len(s.queue),
		QueueCap:      cap(s.queue),
		Counters:      l.counters,
	}
	busy := l.busyNanos
	for _, j := range l.jobs {
		switch j.state {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
			// Credit the in-progress slice of running jobs so utilization
			// doesn't sawtooth to zero between long completions.
			busy += now.Sub(j.started).Nanoseconds()
		}
	}
	l.mu.Unlock()

	if up := now.Sub(s.started).Nanoseconds(); up > 0 && s.workers > 0 {
		st.Utilization = math.Min(1, float64(busy)/float64(up*int64(s.workers)))
	}
	st.Endpoints = s.api.Endpoints()
	st.Cache = s.cache.Stats()
	return st
}
