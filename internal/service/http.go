package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"occamy/internal/scenario"
)

// HTTP API (v1)
//
//	GET    /v1/scenarios              catalog listing
//	GET    /v1/scenarios/{name}       exportable spec template (?scale=)
//	POST   /v1/runs                   submit a strict-JSON spec body
//	                                  (or ?name=<catalog>&scale= with an
//	                                  empty body) -> 202 {id, cached}
//	GET    /v1/runs                   list jobs
//	GET    /v1/runs/{id}              status + result document when done
//	                                  (?part=head: without its trace)
//	GET    /v1/runs/{id}/trace.csv    occupancy trace CSV (?stride=N)
//	DELETE /v1/runs/{id}              cancel
//	POST   /v1/sweeps                 {spec|name, axes: ["path=v1,v2"]}
//	POST   /v1/batch                  {specs: [spec, ...], scale?} ->
//	                                  202 {runs: [{job}|{error, code}]}
//	GET    /v1/cache                  cache stats
//	GET    /v1/stats                  service SLO stats (see stats.go)
//
// Spec parsing reuses scenario.ParseSpec, so the server is exactly as
// strict as the CLI: unknown fields, malformed durations, and invalid
// values are a 400 with the parser's message — never a panic (the fuzz
// test drives arbitrary bodies through POST /v1/runs to pin that).

// maxSpecBytes bounds a submitted spec body; real specs are a few KB.
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP API; see API for the middleware
// every route runs under.
func (s *Service) Handler() http.Handler { return s.api }

// routes registers the API surface; the fleet router serves the same
// patterns, so clients (curl, occamy-loadgen) are agnostic to whether
// they talk to one worker or the fleet.
func (s *Service) routes() {
	s.api.Handle("GET /v1/scenarios", s.handleScenarios)
	s.api.Handle("GET /v1/scenarios/{name}", s.handleScenarioExport)
	s.api.Handle("POST /v1/runs", s.handleSubmit)
	s.api.Handle("GET /v1/runs", s.handleJobs)
	s.api.Handle("GET /v1/runs/{id}", s.handleJob)
	s.api.Handle("GET /v1/runs/{id}/trace.csv", s.handleTrace)
	s.api.Handle("DELETE /v1/runs/{id}", s.handleCancel)
	s.api.Handle("POST /v1/sweeps", s.handleSweep)
	s.api.Handle("POST /v1/batch", s.handleBatch)
	s.api.Handle("GET /v1/cache", s.handleCache)
	s.api.Handle("GET /v1/stats", s.handleStats)
	s.api.Handle("GET /metrics", s.handleMetrics)
}

// scenarioInfo is one catalog row of GET /v1/scenarios.
type scenarioInfo struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	// Kind is "spec" for exportable declarative entries, "figure" for
	// the bespoke figure harnesses (not runnable over the API).
	Kind string `json:"kind"`
}

func (s *Service) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var out []scenarioInfo
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		kind := "spec"
		if sc.Tables != nil {
			kind = "figure"
		}
		out = append(out, scenarioInfo{Name: name, Title: sc.Spec.Title, Kind: kind})
	}
	WriteJSON(w, http.StatusOK, map[string]any{"scenarios": out})
}

// CatalogSpec resolves a catalog entry at a scale; the error messages
// double as HTTP bodies. Exported for the fleet router's sweep and
// batch handlers, which resolve catalog names with the same rules.
func CatalogSpec(name, scaleStr string) (scenario.Spec, error) {
	scale, err := scenario.ParseScale(scaleStr)
	if err != nil {
		return scenario.Spec{}, err
	}
	sc, ok := scenario.Get(name)
	if !ok {
		return scenario.Spec{}, fmt.Errorf("unknown scenario %q", name)
	}
	if sc.Tables != nil {
		return scenario.Spec{}, fmt.Errorf("%s is a figure harness with bespoke tables; it has no spec", name)
	}
	return sc.SpecAt(scale), nil
}

func (s *Service) handleScenarioExport(w http.ResponseWriter, r *http.Request) {
	spec, err := CatalogSpec(r.PathValue("name"), r.URL.Query().Get("scale"))
	if err != nil {
		HTTPError(w, http.StatusNotFound, "%v", err)
		return
	}
	data, err := spec.Marshal()
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// ReadSpec extracts the submitted spec of a POST /v1/runs-shaped
// request: a strict-JSON body, or — when the body is empty — a catalog
// name in the query string. Exported so the fleet router parses
// submissions with exactly the service's strictness (same errors, same
// status codes) before routing them by fingerprint.
func ReadSpec(r *http.Request) (scenario.Spec, int, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		return scenario.Spec{}, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	if len(body) > maxSpecBytes {
		return scenario.Spec{}, http.StatusRequestEntityTooLarge, fmt.Errorf("spec body over %d bytes", maxSpecBytes)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		name := r.URL.Query().Get("name")
		if name == "" {
			return scenario.Spec{}, http.StatusBadRequest, fmt.Errorf("empty body and no ?name= catalog entry")
		}
		spec, err := CatalogSpec(name, r.URL.Query().Get("scale"))
		if err != nil {
			return scenario.Spec{}, http.StatusNotFound, err
		}
		return spec, 0, nil
	}
	spec, err := scenario.ParseSpec(body)
	if err != nil {
		return scenario.Spec{}, http.StatusBadRequest, err
	}
	if scaleStr := r.URL.Query().Get("scale"); scaleStr != "" {
		scale, err := scenario.ParseScale(scaleStr)
		if err != nil {
			return scenario.Spec{}, http.StatusBadRequest, err
		}
		spec.Scale = scale
	}
	return spec, 0, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, status, err := ReadSpec(r)
	if err != nil {
		HTTPError(w, status, "%v", err)
		return
	}
	s.jobs.Accept(w, r, "run", Request{Spec: spec})
}

// Accept submits one decoded request under the request's trace ID and
// writes the reply: 202 with the job's status snapshot, or the refusal.
func (l *Ledger) Accept(w http.ResponseWriter, r *http.Request, kind string, req Request) {
	st, err := l.Submit(kind, req, r.Header.Get(TraceHeader))
	if err != nil {
		HTTPError(w, submitStatus(w, err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusAccepted, st)
}

// submitStatus maps a Submit/SubmitSweep error to its HTTP status and
// sets the Retry-After header where a backoff-and-retry is the right
// client move. Draining is 503 + Retry-After (this instance is going
// away; a router or LB should retry a peer shortly), queue-full a plain
// 503 (same instance, just saturated), and anything else — fingerprint
// failures and other internal surprises — a 500, never disguised as a
// capacity problem.
func submitStatus(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"runs": s.Jobs()})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.jobs.View(id)
	if !ok {
		HTTPError(w, http.StatusNotFound, "no run %s", id)
		return
	}
	WriteJobView(w, r, view)
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	stride := 1
	if v := r.URL.Query().Get("stride"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			HTTPError(w, http.StatusBadRequest, "stride must be a positive integer, got %q", v)
			return
		}
		stride = n
	}
	// The trace section of the stored bytes is decoded per request and
	// not kept: what finished jobs hold stays bounded by the cache budget.
	view, ok := s.jobs.View(id)
	var trace *scenario.TraceDoc
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("service: no job %s", id)
	case view.State != JobDone:
		err = fmt.Errorf("service: job %s is %s, not done", id, view.State)
	case view.Kind != "run":
		err = fmt.Errorf("service: job %s is a %s, not a run", id, view.Kind)
	default:
		trace, err = scenario.DecodeTrace(view.Result)
	}
	if err != nil {
		HTTPError(w, http.StatusNotFound, "%v", err)
		return
	}
	// Decide the status before committing to a 200 text/csv: a traceless
	// document (the run had no occupancy sampling) must be a clean 404,
	// never a JSON error appended to an already-started CSV body.
	if trace == nil {
		HTTPError(w, http.StatusNotFound, "scenario %q: result document carries no trace", view.Scenario)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	if err := trace.WriteCSV(w, stride); err != nil {
		// Headers are gone, so this can only be a transport write failure;
		// truncating mid-body is all that's left (the client sees a short
		// read, not a corrupted-but-plausible CSV with JSON stitched on).
		return
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Cancel(id)
	if !ok {
		HTTPError(w, http.StatusNotFound, "no run %s", id)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// sweepRequest is the POST /v1/sweeps body: an inline spec or a catalog
// name, plus the axes in CLI syntax ("policy.alpha=1,2,4").
type sweepRequest struct {
	Name  string          `json:"name,omitempty"`
	Scale string          `json:"scale,omitempty"`
	Spec  json.RawMessage `json:"spec,omitempty"`
	Axes  []string        `json:"axes"`
}

// ReadSweep extracts the submission of a POST /v1/sweeps request: the
// base spec (inline or by catalog name), the parsed axes, and the
// expanded grid, capped at maxPoints (see ExpandSweep). Like ReadSpec
// it is the one reader for the worker and the fleet router, so a bad
// sweep draws the same status and message from either tier.
func ReadSweep(r *http.Request, maxPoints int) (Request, int, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil || len(body) > maxSpecBytes {
		return Request{}, http.StatusBadRequest, errors.New("bad sweep body")
	}
	var req sweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return Request{}, http.StatusBadRequest, fmt.Errorf("parsing sweep request: %v", err)
	}
	var spec scenario.Spec
	switch {
	case len(req.Spec) > 0:
		if spec, err = scenario.ParseSpec(req.Spec); err != nil {
			return Request{}, http.StatusBadRequest, err
		}
	case req.Name != "":
		if spec, err = CatalogSpec(req.Name, req.Scale); err != nil {
			return Request{}, http.StatusNotFound, err
		}
	default:
		return Request{}, http.StatusBadRequest, errors.New("sweep request needs a spec or a catalog name")
	}
	if len(req.Axes) == 0 {
		return Request{}, http.StatusBadRequest, errors.New("sweep request has no axes")
	}
	axes := make([]scenario.SweepAxis, len(req.Axes))
	for i, a := range req.Axes {
		if axes[i], err = scenario.ParseSweep(a); err != nil {
			return Request{}, http.StatusBadRequest, err
		}
	}
	sweep, err := ExpandSweep(spec, axes, maxPoints)
	if err != nil {
		return Request{}, http.StatusBadRequest, err
	}
	return sweep, 0, nil
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, status, err := ReadSweep(r, s.maxSweepPoints)
	if err != nil {
		HTTPError(w, status, "%v", err)
		return
	}
	s.jobs.Accept(w, r, "sweep", req)
}

// BatchRequest is the POST /v1/batch body: many strict-JSON specs in
// one submission, with an optional batch-wide scale override.
type BatchRequest struct {
	Specs []json.RawMessage `json:"specs"`
	Scale string            `json:"scale,omitempty"`
}

// BatchItem is one POST /v1/batch response entry, in request order:
// either the submitted job's status snapshot or that spec's error (with
// the HTTP status the same spec would have drawn from POST /v1/runs).
type BatchItem struct {
	Job   *JobStatus `json:"job,omitempty"`
	Error string     `json:"error,omitempty"`
	Code  int        `json:"code,omitempty"`
}

// maxBatchSpecs bounds one batch submission (the body size bound still
// applies on top).
const maxBatchSpecs = 512

// ReadBatch extracts the submission of a POST /v1/batch request, for
// the worker and the fleet router alike. Failures stay per-item so one
// bad spec doesn't void the rest of the batch: items is the response
// skeleton in request order, already carrying the error of every spec
// that did not parse, and specs[i] — with the batch-wide scale applied
// — is valid wherever items[i].Code is zero.
func ReadBatch(r *http.Request) (specs []scenario.Spec, items []BatchItem, status int, err error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil || len(body) > maxSpecBytes {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("bad batch body (max %d bytes)", maxSpecBytes)
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("parsing batch request: %v", err)
	}
	if len(req.Specs) == 0 {
		return nil, nil, http.StatusBadRequest, errors.New("batch request has no specs")
	}
	if len(req.Specs) > maxBatchSpecs {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("batch has %d specs (cap %d)", len(req.Specs), maxBatchSpecs)
	}
	var scale scenario.Scale
	if req.Scale != "" {
		if scale, err = scenario.ParseScale(req.Scale); err != nil {
			return nil, nil, http.StatusBadRequest, err
		}
	}
	specs = make([]scenario.Spec, len(req.Specs))
	items = make([]BatchItem, len(req.Specs))
	for i, raw := range req.Specs {
		if specs[i], err = scenario.ParseSpec(raw); err != nil {
			items[i] = BatchItem{Error: err.Error(), Code: http.StatusBadRequest}
		} else if req.Scale != "" {
			specs[i].Scale = scale
		}
	}
	return specs, items, 0, nil
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	specs, items, status, err := ReadBatch(r)
	if err != nil {
		HTTPError(w, status, "%v", err)
		return
	}
	// One POST, many job IDs: each spec goes through the exact Submit
	// path a lone POST /v1/runs takes (cache hit / coalesce / enqueue /
	// refuse). Each item's job gets a ".N" child of the batch trace, so
	// the IDs stay distinct per spec yet grep back to the one submission.
	trace := r.Header.Get(TraceHeader)
	for i, spec := range specs {
		if items[i].Code != 0 {
			continue
		}
		st, err := s.jobs.Submit("run", Request{Spec: spec}, ChildTrace(trace, "", i))
		if err != nil {
			items[i] = BatchItem{Error: err.Error(), Code: batchCode(err)}
			continue
		}
		items[i] = BatchItem{Job: &st}
	}
	WriteJSON(w, http.StatusAccepted, map[string]any{"runs": items})
}

// batchCode is submitStatus without the header side effect (per-item
// errors can't set response headers).
func batchCode(err error) int {
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrQueueFull) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func (s *Service) handleCache(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.cache.Stats())
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}
