package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"occamy/internal/fleet"
	"occamy/internal/scenario"
	"occamy/internal/service"
)

// jobView is what the load generator reads of a POST or GET reply.
type jobView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Cached      bool            `json:"cached"`
	Error       string          `json:"error"`
	QueueWaitMs float64         `json:"queue_wait_ms"`
	RunMs       float64         `json:"run_ms"`
	Result      json.RawMessage `json:"result"`
}

func (v *jobView) terminal() bool { return service.JobState(v.State).Terminal() }

// pollEvery is the client's status-poll period on a job that is not
// born done.
const pollEvery = time.Millisecond

// httpSide is the load generator's end of the wire: one keep-alive
// connection per client over host loopback, and the client-side counts
// the traced passes report.
type httpSide struct {
	hc   *http.Client
	base string

	jobs, gets, relayBytes, hits atomic.Int64 // traced jobs only
	mu                           sync.Mutex
	queueWait, runMs             []float64 // traced single runs, from their final JobStatus
}

func newHTTPSide(base string) *httpSide {
	return &httpSide{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
}

// traceHeader carries the job number to the server-side span wrappers in
// the header the router already propagates to workers.
func traceHeader(job int) string { return "b" + strconv.Itoa(job) }

// call makes one request inside a client span and decodes the reply.
func (h *httpSide) call(c *client, name, method, path string, body []byte, want int) (*jobView, error) {
	id := c.tr.begin(c.job, name)
	defer c.tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(service.TraceHeader, traceHeader(c.job))
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if c.tr.enabled() {
		h.relayBytes.Add(int64(len(data)))
		if method == http.MethodGet {
			h.gets.Add(1)
		}
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, data)
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return &v, nil
}

// submitAndWait is one job over HTTP: POST it, then poll its status
// until it is terminal. It returns the final view of a done job whose
// cached flag reads wantCached, and anything else as an error.
func (h *httpSide) submitAndWait(c *client, j *job, wantCached bool) (*jobView, error) {
	path := "/v1/runs"
	if j.sweep {
		path = "/v1/sweeps"
	}
	v, err := h.call(c, "service.post", http.MethodPost, path, j.body, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	if v.Cached != wantCached {
		return nil, fmt.Errorf("%s %s: cached=%t at submission, want %t", j.kind, v.ID, v.Cached, wantCached)
	}
	if wantCached && !v.terminal() {
		return nil, fmt.Errorf("%s %s: a cached job was born %s", j.kind, v.ID, v.State)
	}
	id := v.ID
	for {
		if !v.terminal() {
			w := c.tr.begin(c.job, "client.wait")
			time.Sleep(pollEvery)
			c.tr.end(w)
		}
		if v, err = h.call(c, "service.get", http.MethodGet, "/v1/runs/"+id, nil, http.StatusOK); err != nil {
			return nil, err
		}
		if v.terminal() {
			break
		}
	}
	if v.State != string(service.JobDone) || v.Cached != wantCached || len(v.Result) == 0 {
		return nil, fmt.Errorf("%s %s: ended %s cached=%t %s", j.kind, id, v.State, v.Cached, v.Error)
	}
	if c.tr.enabled() {
		h.jobs.Add(1)
		if v.Cached {
			h.hits.Add(1)
		}
		if !j.sweep && !v.Cached {
			h.mu.Lock()
			h.queueWait, h.runMs = append(h.queueWait, v.QueueWaitMs), append(h.runMs, v.RunMs)
			h.mu.Unlock()
		}
	}
	return v, nil
}

func (h *httpSide) layers(m map[string]float64) {
	jobs := float64(h.jobs.Load())
	m["service.relay_kb_per_job"] = ratio(float64(h.relayBytes.Load()), jobs) / 1024
	m["service.polls_per_job"] = ratio(float64(h.gets.Load()), jobs)
	m["service.cache_hit_share"] = 100 * ratio(float64(h.hits.Load()), jobs)
	m["service.queue_wait_ms"] = median(h.queueWait)
	m["service.run_ms"] = median(h.runMs)
}

// spanHandler wraps a server's handler with a span per request that
// carries a job number: name_post, name_get or name_sweep. A request
// the router's sweep aggregator made on its own (the trace ID has a
// ".N" point suffix) is not inside any client request, so its span is
// detached. With a nil tracer the handler is returned as it is.
func spanHandler(tr *tracer, name, node string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := strings.CutPrefix(r.Header.Get(service.TraceHeader), "b")
		if !ok || !tr.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		id, _, point := strings.Cut(id, ".")
		job, err := strconv.Atoi(id)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := span{Job: job, Node: node, Name: name + "_get", Detached: point}
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/sweeps"):
			s.Name = name + "_sweep"
		case r.Method == http.MethodPost:
			s.Name = name + "_post"
		}
		if point {
			start := time.Now()
			h.ServeHTTP(w, r)
			tr.add(s, start, time.Now())
			return
		}
		open := tr.beginSpan(s)
		h.ServeHTTP(w, r)
		tr.end(open)
	})
}

// ledgerHolds checks a worker's submission ledger identity.
func ledgerHolds(c service.Counters) bool {
	return c.Submitted == c.CacheHits+c.Coalesced+c.Enqueued+c.Refused
}

// getStats reads a /v1/stats document.
func getStats(hc *http.Client, url string, into any) error {
	resp, err := hc.Get(url + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/v1/stats: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// --- serve-hit ---------------------------------------------------------

// hitRunner is the service read path: one worker service behind an
// httptest server, its memory cache prefilled, two clients.
type hitRunner struct {
	e      env
	svc    *service.Service
	srv    *httptest.Server
	http   *httpSide
	specs  [][]byte   // small family first, then large
	nSmall int        // how many of specs are the small family
	refs   [][32]byte // reference digest per spec, from the prefill
	stats0 service.Counters
}

const (
	hitClients = 2
	hitMaxJobs = 1024
)

func setupServeHit(e env) (runner, error) {
	small, large, err := hitSpecs(e.smoke)
	if err != nil {
		return nil, err
	}
	// A ledger bound below one pass's jobs puts the service in its
	// steady state, pruning old jobs on every submission, from the warm-up
	// on; with the default 4096 only the passes after the third would.
	svc, err := service.New(service.Config{Workers: 2, MaxJobs: hitMaxJobs})
	if err != nil {
		return nil, err
	}
	r := &hitRunner{e: e, svc: svc, specs: append(small, large...), nSmall: len(small)}
	r.refs = make([][32]byte, len(r.specs))
	r.srv = httptest.NewServer(spanHandler(e.tr, "service.handler", "worker-0", svc.Handler()))
	r.http = newHTTPSide(r.srv.URL)
	if err := r.prefill(); err != nil {
		r.close(false)
		return nil, err
	}
	r.stats0 = svc.Stats().Counters
	return r, nil
}

// prefill simulates every spec once, two at a time, and keeps the digest
// of each result as the reference every later read must equal.
func (r *hitRunner) prefill() error {
	errs := make([]error, hitClients)
	var wg sync.WaitGroup
	for ci := 0; ci < hitClients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{}
			for i := ci; i < len(r.specs) && errs[ci] == nil; i += hitClients {
				v, err := r.http.submitAndWait(c, &job{kind: "prefill", body: r.specs[i]}, false)
				if err != nil {
					errs[ci] = err
					return
				}
				r.refs[i] = sha256.Sum256(v.Result)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

func (r *hitRunner) lists(int) ([][]job, error) {
	lists := make([][]job, hitClients)
	for ci := range lists {
		lists[ci] = serveHitJobs(r.e.seed, ci, r.nSmall, len(r.specs)-r.nSmall, r.e.smoke)
		for i := range lists[ci] {
			lists[ci][i].body = r.specs[lists[ci][i].ref]
		}
	}
	return lists, nil
}

func (r *hitRunner) do(c *client, j *job) ([32]byte, error) {
	v, err := r.http.submitAndWait(c, j, true)
	if err != nil {
		return [32]byte{}, err
	}
	d := sha256.Sum256(v.Result)
	if d != r.refs[j.ref] {
		return d, fmt.Errorf("%s: result bytes differ from the prefill's", j.kind)
	}
	return d, nil
}

func (r *hitRunner) settle() (int, int) { return 0, 0 }

// close checks, on the measured instance, that the ledger identity holds
// and that nothing was simulated after the prefill.
func (r *hitRunner) close(final bool) (checks, failed int) {
	if final {
		var st service.Stats
		err := getStats(r.http.hc, r.srv.URL, &st)
		checks = 2
		if err != nil || !ledgerHolds(st.Counters) {
			failed++
		}
		if err != nil || st.Counters.Enqueued != r.stats0.Enqueued {
			failed++
		}
	}
	r.http.hc.CloseIdleConnections()
	r.srv.Close()
	r.svc.Close()
	return checks, failed
}

func (r *hitRunner) layers(m map[string]float64) {
	r.http.layers(m)
	st := r.svc.Stats()
	// Simulated events can only come from enqueued jobs, and none were.
	m["sim.events_per_job"] = float64(st.Counters.Enqueued - r.stats0.Enqueued)
	m["service.refused_share"] = 100 * ratio(float64(st.Counters.Refused), float64(st.Counters.Submitted))
	m["service.cache_evictions_per_job"] = ratio(float64(st.Cache.Evicted), float64(st.Counters.Submitted))
	m["service.submit_hit_us"], m["service.cache_get_us"] = hitKernels(r.svc, r.specs[0], r.e.smoke)
}

// --- fleet-miss --------------------------------------------------------

// missRunner is the service write path through the router: two
// single-worker services with small disk-backed caches, one router,
// one client, every fingerprint fresh.
type missRunner struct {
	e       env
	dir     string
	workers []*service.Service
	servers []*httptest.Server // the workers', then the router's
	http    *httpSide
	done    int // jobs completed on this instance, for the 1-in-25 sample
	sample  []missSample
}

// missSample is a result kept for re-derivation between passes.
type missSample struct {
	job    job
	digest [32]byte
}

const (
	missWorkers    = 2
	missCacheBytes = 32 << 20
	missSampleRate = 25
)

func setupFleetMiss(e env) (runner, error) {
	dir, err := os.MkdirTemp(e.tmp, "fleet-miss-")
	if err != nil {
		return nil, err
	}
	r := &missRunner{e: e, dir: dir}
	// The ring hashes worker names, so they are fixed names that the
	// router's client dials to whichever ports the listeners got: with
	// names made of random ports, shard placement (and so how a sweep's
	// four points spread over the two workers) would change every run.
	addrs := map[string]string{}
	var names []string
	for i := 0; i < missWorkers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		svc, err := service.New(service.Config{
			Workers: 1, CacheBytes: missCacheBytes, CacheDir: fmt.Sprintf("%s/cache-%d", dir, i),
		})
		if err != nil {
			r.close(false)
			return nil, err
		}
		srv := httptest.NewServer(spanHandler(e.tr, "service.handler", name, svc.Handler()))
		r.workers, r.servers = append(r.workers, svc), append(r.servers, srv)
		addrs[name+":80"] = srv.Listener.Addr().String()
		names = append(names, "http://"+name)
	}
	dialer := &net.Dialer{}
	rt, err := fleet.NewRouter(fleet.Config{
		Workers: names,
		Client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return dialer.DialContext(ctx, network, addrs[addr])
			},
		}},
	})
	if err != nil {
		r.close(false)
		return nil, err
	}
	router := httptest.NewServer(spanHandler(e.tr, "fleet.router", "router", rt.Handler()))
	r.servers = append(r.servers, router)
	r.http = newHTTPSide(router.URL)
	return r, nil
}

func (r *missRunner) lists(pass int) ([][]job, error) {
	jobs, err := fleetMissJobs(r.e.seed, pass, r.e.smoke)
	return [][]job{jobs}, err
}

func (r *missRunner) do(c *client, j *job) ([32]byte, error) {
	v, err := r.http.submitAndWait(c, j, false)
	if err != nil {
		return [32]byte{}, err
	}
	d := sha256.Sum256(v.Result)
	if r.done++; r.done%missSampleRate == 0 {
		r.sample = append(r.sample, missSample{job: *j, digest: d})
	}
	return d, nil
}

// settle re-derives the sampled results in process: a fresh fingerprint
// has no reference to compare with, so one result in 25 is checked
// against what scenario.Run (or RunSweep) makes of the same bytes.
func (r *missRunner) settle() (checks, failed int) {
	for _, s := range r.sample {
		checks++
		data, err := rederive(&s.job)
		if err != nil || sha256.Sum256(bytes.TrimSuffix(data, []byte("\n"))) != s.digest {
			failed++
		}
	}
	r.sample = r.sample[:0]
	return checks, failed
}

// rederive computes a job's canonical result bytes without the service.
func rederive(j *job) ([]byte, error) {
	if !j.sweep {
		return runSpec(j.body)
	}
	var req struct {
		Spec json.RawMessage `json:"spec"`
		Axes []string        `json:"axes"`
	}
	if err := json.Unmarshal(j.body, &req); err != nil {
		return nil, err
	}
	spec, err := scenario.ParseSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	axes := make([]scenario.SweepAxis, len(req.Axes))
	for i, a := range req.Axes {
		if axes[i], err = scenario.ParseSweep(a); err != nil {
			return nil, err
		}
	}
	tab, err := scenario.RunSweep(spec, axes)
	if err != nil {
		return nil, err
	}
	doc := scenario.NewTableDoc(tab)
	return doc.Encode()
}

// fleetStats reads the router's merged stats document.
func (r *missRunner) fleetStats() (fleet.Stats, error) {
	var st fleet.Stats
	err := getStats(r.http.hc, r.http.base, &st)
	for _, w := range st.Fleet {
		if err == nil && w.Stats == nil {
			err = fmt.Errorf("worker %s: %s", w.URL, w.Error)
		}
	}
	return st, err
}

// close checks, on the measured instance, every worker's ledger identity
// and that no submission was refused, answered from cache or lost to a
// worker error.
func (r *missRunner) close(final bool) (checks, failed int) {
	if final {
		st, err := r.fleetStats()
		checks = len(r.workers) + 1
		for _, w := range st.Fleet {
			if err != nil || !ledgerHolds(w.Stats.Counters) {
				failed++
			}
		}
		c := st.Counters
		if err != nil || c.Refused != 0 || c.CacheHits != 0 || st.Router.Counters.WorkerErrors != 0 {
			failed++
		}
		if err != nil {
			failed = checks
		}
	}
	if r.http != nil {
		r.http.hc.CloseIdleConnections()
	}
	for i := len(r.servers) - 1; i >= 0; i-- {
		r.servers[i].Close()
	}
	for _, svc := range r.workers {
		svc.Close()
	}
	if err := os.RemoveAll(r.dir); err != nil && final {
		checks, failed = checks+1, failed+1
	}
	return checks, failed
}

func (r *missRunner) layers(m map[string]float64) {
	r.http.layers(m)
	st, err := r.fleetStats()
	if err != nil {
		return
	}
	c := st.Counters
	m["service.refused_share"] = 100 * ratio(float64(c.Refused), float64(c.Submitted))
	m["service.cache_evictions_per_job"] = ratio(float64(st.Cache.Evicted), float64(r.done))
	m["fleet.worker_errors"] = float64(st.Router.Counters.WorkerErrors)
	most := int64(0)
	for _, w := range st.Fleet {
		most = max(most, w.Stats.Counters.Submitted)
	}
	m["fleet.shard_share_max"] = 100 * ratio(float64(most), float64(c.Submitted))
	m["service.cache_put_mem_us"], m["service.cache_put_dir_us"] = cachePutKernels(r.dir, r.e.smoke)
	m["fleet.ring_lookup_ns"] = ringKernel(r.e.smoke)
}
