package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"occamy/internal/service"
)

// Config sizes a Router.
type Config struct {
	// Workers are the occamy-served base URLs ("http://host:port"),
	// unique, in any order (the ring hashes their names, not their
	// positions).
	Workers []string
	// MaxSweepPoints caps one sweep's expanded grid, checked in O(axes)
	// before expansion exactly like the worker-side cap (default 256).
	MaxSweepPoints int
	// RatePerClient and Burst shape the per-client token bucket guarding
	// the submission endpoints; RatePerClient <= 0 disables limiting.
	RatePerClient float64
	Burst         float64
	// SweepCacheBytes budgets the router's aggregated-sweep result cache
	// (default 64 MB). Individual run results are never cached here —
	// they live on their home shard.
	SweepCacheBytes int64
	// PollInterval is the cadence at which the sweep aggregator polls
	// point jobs (default 5ms); PointTimeout bounds one point's
	// submit-to-done wait (default 10m).
	PollInterval time.Duration
	PointTimeout time.Duration
	// Client overrides the HTTP client used to reach workers.
	Client *http.Client
	// Logger receives structured request and sweep-lifecycle records
	// (occamy-served -shards wires a JSON handler behind -log-level). nil
	// discards everything.
	Logger *slog.Logger
}

// Counters is the router's own cumulative ledger, reported under
// "router" in GET /v1/stats (the worker ledgers are merged separately).
type Counters struct {
	// Routed counts POST /v1/runs submissions forwarded to a shard;
	// Proxied the forwarded reads/cancels (status, trace, delete).
	Routed  int64 `json:"routed"`
	Proxied int64 `json:"proxied"`
	// Sweeps counts POST /v1/sweeps accepted; SweepCacheHits the ones
	// answered from the aggregated-table cache; SweepPoints the grid
	// points fanned out to workers.
	Sweeps         int64 `json:"sweeps"`
	SweepCacheHits int64 `json:"sweep_cache_hits"`
	SweepPoints    int64 `json:"sweep_points"`
	// BatchSpecs counts specs submitted through POST /v1/batch.
	BatchSpecs int64 `json:"batch_specs"`
	// RateLimited counts 429s; WorkerErrors the 502s returned because a
	// shard was unreachable.
	RateLimited  int64 `json:"rate_limited"`
	WorkerErrors int64 `json:"worker_errors"`
}

// Router fronts a fleet of occamy-served workers. Runs are routed by
// consistent hash over the spec fingerprint — the same partition key
// the workers' content-addressed caches use — so every spec has exactly
// one home shard and resubmissions are fleet-wide O(1) cache hits.
// Sweeps are expanded router-side and their points fanned to each
// point's home shard, the aggregate re-assembled byte-identically to a
// single-process sweep. The router itself holds no simulation state:
// killing it loses nothing but the in-flight sweep aggregations.
type Router struct {
	workers    []string
	ring       *Ring
	client     *http.Client
	limiter    *RateLimiter
	sweepCache *service.Cache
	// jobs is the router-owned sweep ledger ("g<seq>" IDs): the worker's
	// job kernel with the shard fan-out (runSweep) as its executor and
	// the aggregated-table cache as its result cache.
	jobs      *service.Ledger
	api       *service.API
	maxSweep  int
	pollEvery time.Duration
	pointWait time.Duration
	started   time.Time

	mu       sync.Mutex
	counters Counters
}

// NewRouter builds a router over the worker fleet.
func NewRouter(cfg Config) (*Router, error) {
	ring, err := NewRing(cfg.Workers, 0)
	if err != nil {
		return nil, err
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = 256
	}
	if cfg.SweepCacheBytes <= 0 {
		cfg.SweepCacheBytes = 64 << 20
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 5 * time.Millisecond
	}
	if cfg.PointTimeout <= 0 {
		cfg.PointTimeout = 10 * time.Minute
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	sweepCache, err := service.NewCache(cfg.SweepCacheBytes, "")
	if err != nil {
		return nil, err
	}
	rt := &Router{
		workers:    ring.Nodes(),
		ring:       ring,
		client:     client,
		limiter:    NewRateLimiter(cfg.RatePerClient, cfg.Burst),
		sweepCache: sweepCache,
		api:        service.NewAPI(cfg.Logger),
		maxSweep:   cfg.MaxSweepPoints,
		pollEvery:  cfg.PollInterval,
		pointWait:  cfg.PointTimeout,
		started:    time.Now(),
	}
	rt.jobs = service.NewLedger("g", service.DefaultMaxJobs, sweepCache, cfg.Logger, rt.startSweep)
	// The worker's API surface, fleet-wide: same routes, same middleware.
	rt.api.Handle("GET /v1/scenarios", rt.handleScenarios)
	rt.api.Handle("GET /v1/scenarios/{name}", rt.handleScenarioExport)
	rt.api.Handle("POST /v1/runs", rt.handleSubmit)
	rt.api.Handle("GET /v1/runs", rt.handleJobs)
	rt.api.Handle("GET /v1/runs/{id}", rt.handleJob)
	rt.api.Handle("GET /v1/runs/{id}/trace.csv", rt.handleTrace)
	rt.api.Handle("DELETE /v1/runs/{id}", rt.handleCancel)
	rt.api.Handle("POST /v1/sweeps", rt.handleSweep)
	rt.api.Handle("POST /v1/batch", rt.handleBatch)
	rt.api.Handle("GET /v1/cache", rt.handleCache)
	rt.api.Handle("GET /v1/stats", rt.handleStats)
	rt.api.Handle("GET /metrics", rt.handleMetrics)
	return rt, nil
}

// Handler returns the router's HTTP API — the same surface as one
// occamy-served, under the same middleware (service.API).
func (rt *Router) Handler() http.Handler { return rt.api }

// Job-ID shard encoding
//
// The router issues run IDs of the form "w<shard>.<worker id>" (e.g.
// "w1.r42"): the shard index names the worker that owns the job, so
// status polls, trace fetches, and cancels route without any router
// state. Sweep jobs are router-owned aggregations and use "g<seq>".

func routerID(shard int, workerID string) string {
	return fmt.Sprintf("w%d.%s", shard, workerID)
}

// parseRunID splits a router run ID into its shard and worker-local id.
func (rt *Router) parseRunID(id string) (int, string, bool) {
	rest, ok := strings.CutPrefix(id, "w")
	if !ok {
		return 0, "", false
	}
	dot := strings.IndexByte(rest, '.')
	if dot <= 0 {
		return 0, "", false
	}
	shard, err := strconv.Atoi(rest[:dot])
	if err != nil || shard < 0 || shard >= len(rt.workers) {
		return 0, "", false
	}
	return shard, rest[dot+1:], true
}

// clientKey identifies the rate-limited principal: an explicit
// X-Client-ID header when present, else the remote host (sans port, so
// reconnects share one bucket).
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// admit charges n tokens to the request's client; on refusal it writes
// the 429 (with Retry-After rounded up to whole seconds) and returns
// false.
func (rt *Router) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	ok, retryAfter := rt.limiter.AllowN(clientKey(r), n)
	if ok {
		return true
	}
	rt.count(func(c *Counters) { c.RateLimited++ })
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	service.HTTPError(w, http.StatusTooManyRequests, "rate limit exceeded for client %q; retry in %ds", clientKey(r), secs)
	return false
}

// count bumps one router counter under the lock.
func (rt *Router) count(f func(*Counters)) {
	rt.mu.Lock()
	f(&rt.counters)
	rt.mu.Unlock()
}

// snapshot copies the router's counters; the sweep submission counts
// are the sweep ledger's own.
func (rt *Router) snapshot() Counters {
	sweeps := rt.jobs.Counters()
	rt.mu.Lock()
	c := rt.counters
	rt.mu.Unlock()
	c.Sweeps, c.SweepCacheHits = sweeps.Submitted, sweeps.CacheHits
	return c
}

// --- worker I/O -------------------------------------------------------

// workerResponse is one buffered worker reply.
type workerResponse struct {
	status int
	header http.Header
	body   []byte
}

// callWorker performs one request against a shard, buffering the body
// (bounded) and propagating the trace ID so the worker's logs and job
// ledger carry the router's request identity. ctx bounds the call: a
// proxied request dies with its client, a sweep point with its
// PointTimeout — a hung shard never hangs the router. Transport errors
// — the shard is down — come back as an error; HTTP-level failures are
// the caller's to interpret.
func (rt *Router) callWorker(ctx context.Context, shard int, method, path string, body []byte, trace string) (*workerResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rt.workers[shard]+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(service.TraceHeader, trace)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, rt.workerFailed(ctx, fmt.Errorf("worker %d (%s) unreachable: %w", shard, rt.workers[shard], err))
	}
	defer resp.Body.Close()
	// A declared length sizes the buffer once: io.ReadAll over-allocates.
	var data []byte
	if n := resp.ContentLength; n >= 0 && n <= 256<<20 {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	}
	if err != nil {
		return nil, rt.workerFailed(ctx, fmt.Errorf("worker %d (%s): reading response: %w", shard, rt.workers[shard], err))
	}
	return &workerResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// workerFailed counts a failed shard call against the fleet — unless
// the caller itself hung up, which says nothing about the worker.
func (rt *Router) workerFailed(ctx context.Context, err error) error {
	if !errors.Is(ctx.Err(), context.Canceled) {
		rt.count(func(c *Counters) { c.WorkerErrors++ })
	}
	return err
}

// relay copies a buffered worker response to the client verbatim,
// preserving the headers a backoff loop cares about.
func relay(w http.ResponseWriter, resp *workerResponse) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// reqTrace reads the request's trace ID; the API middleware has already
// ensured it is present and well-formed.
func reqTrace(r *http.Request) string { return r.Header.Get(service.TraceHeader) }

// proxyAny forwards a fleet-agnostic read (catalog listing/export) to
// the first worker that answers.
func (rt *Router) proxyAny(w http.ResponseWriter, r *http.Request, path string) {
	var lastErr error
	for shard := range rt.workers {
		resp, err := rt.callWorker(r.Context(), shard, http.MethodGet, path, nil, reqTrace(r))
		if err != nil {
			lastErr = err
			continue
		}
		relay(w, resp)
		return
	}
	service.HTTPError(w, http.StatusBadGateway, "no worker reachable: %v", lastErr)
}

func (rt *Router) handleScenarios(w http.ResponseWriter, r *http.Request) {
	rt.proxyAny(w, r, "/v1/scenarios")
}

func (rt *Router) handleScenarioExport(w http.ResponseWriter, r *http.Request) {
	rt.proxyAny(w, r, "/v1/scenarios/"+url.PathEscape(r.PathValue("name"))+forwardQuery(r, "scale"))
}

// forwardQuery renders one parameter of a request's query for the
// worker URL it is forwarded to, escaped again: pasted in as decoded, a
// value could end its own parameter and start another.
func forwardQuery(r *http.Request, name string) string {
	v := r.URL.Query().Get(name)
	if v == "" {
		return ""
	}
	return "?" + name + "=" + url.QueryEscape(v)
}

// --- runs -------------------------------------------------------------

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w, r, 1) {
		return
	}
	spec, status, err := service.ReadSpec(r)
	if err != nil {
		service.HTTPError(w, status, "%v", err)
		return
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		service.HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The spec's home shard is a pure function of its fingerprint — the
	// very key the worker's cache uses — so equal and equivalent specs
	// always land where their result already lives.
	shard := rt.ring.Lookup(fp)
	body, err := spec.Marshal()
	if err != nil {
		service.HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp, err := rt.callWorker(r.Context(), shard, http.MethodPost, "/v1/runs", body, reqTrace(r))
	if err != nil {
		service.HTTPError(w, http.StatusBadGateway, "%v", err)
		return
	}
	rt.count(func(c *Counters) { c.Routed++ })
	rt.relayJob(w, shard, resp, http.StatusAccepted)
}

// relayJob relays a worker's job document (a status snapshot, with the
// result once done) under its fleet-routable ID; any reply other than
// the expected status is relayed verbatim. A job document opens with
// its id (JobStatus's first field, a bare "r<seq>"), so the router
// writes the routed prefix and the rest of the worker's bytes as they
// are; a body that does not open and close like one is a 502.
func (rt *Router) relayJob(w http.ResponseWriter, shard int, resp *workerResponse, want int) {
	if resp.status != want {
		relay(w, resp)
		return
	}
	rest, ok := bytes.CutPrefix(resp.body, []byte(`{"id":"`))
	if !ok || !bytes.HasSuffix(rest, []byte("}\n")) {
		service.HTTPError(w, http.StatusBadGateway, "worker %d: undecodable job document: not a {\"id\":…} object", shard)
		return
	}
	id := `{"id":"` + routerID(shard, "")
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(id)+len(rest)))
	w.WriteHeader(want)
	_, _ = io.WriteString(w, id)
	_, _ = w.Write(rest)
}

func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	var runs []service.JobStatus
	for shard := range rt.workers {
		resp, err := rt.callWorker(r.Context(), shard, http.MethodGet, "/v1/runs", nil, reqTrace(r))
		if err != nil || resp.status != http.StatusOK {
			continue // a dead shard degrades the listing, not the fleet
		}
		var page struct {
			Runs []service.JobStatus `json:"runs"`
		}
		if json.Unmarshal(resp.body, &page) != nil {
			continue
		}
		for _, st := range page.Runs {
			st.ID = routerID(shard, st.ID)
			runs = append(runs, st)
		}
	}
	runs = append(runs, rt.jobs.Jobs()...)
	service.WriteJSON(w, http.StatusOK, map[string]any{"runs": runs})
}

// proxyRun forwards a per-run request to the shard its ID names; ok is
// false once the error reply has been written.
func (rt *Router) proxyRun(w http.ResponseWriter, r *http.Request, method, suffix string) (shard int, resp *workerResponse, ok bool) {
	id := r.PathValue("id")
	shard, wid, ok := rt.parseRunID(id)
	if !ok {
		service.HTTPError(w, http.StatusNotFound, "no run %s", id)
		return 0, nil, false
	}
	resp, err := rt.callWorker(r.Context(), shard, method, "/v1/runs/"+url.PathEscape(wid)+suffix, nil, reqTrace(r))
	if err != nil {
		service.HTTPError(w, http.StatusBadGateway, "%v", err)
		return 0, nil, false
	}
	rt.count(func(c *Counters) { c.Proxied++ })
	return shard, resp, true
}

func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	if view, ok := rt.jobs.View(r.PathValue("id")); ok {
		service.WriteJobView(w, r, view)
		return
	}
	if shard, resp, ok := rt.proxyRun(w, r, http.MethodGet, forwardQuery(r, "part")); ok {
		rt.relayJob(w, shard, resp, http.StatusOK)
	}
}

func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := rt.jobs.Get(id); ok {
		service.HTTPError(w, http.StatusNotFound, "fleet: job %s is a sweep, not a run", id)
		return
	}
	if _, resp, ok := rt.proxyRun(w, r, http.MethodGet, "/trace.csv"+forwardQuery(r, "stride")); ok {
		relay(w, resp)
	}
}

func (rt *Router) handleCancel(w http.ResponseWriter, r *http.Request) {
	// A flagged sweep's aggregator stops between point polls and ends
	// the job canceled; already-submitted points keep running on their
	// shards (their results stay cached — the fleet loses nothing by
	// letting them land).
	if st, ok := rt.jobs.Cancel(r.PathValue("id")); ok {
		service.WriteJSON(w, http.StatusOK, st)
		return
	}
	if shard, resp, ok := rt.proxyRun(w, r, http.MethodDelete, ""); ok {
		rt.relayJob(w, shard, resp, http.StatusOK)
	}
}
