package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"occamy/internal/metrics"
	"occamy/internal/scenario"
)

// API is the HTTP kernel both tiers serve through: an instrumented
// route table. Every route registered with Handle is wrapped in one
// middleware that records handler latency into a per-endpoint
// histogram, establishes the X-Occamy-Trace ID (minting one when
// absent) and echoes it on the response, and emits a debug-level
// structured request record. The worker (Service) and the fleet router
// register the same routes with different handlers; the request
// families of GET /metrics and the endpoint snapshots of GET /v1/stats
// are rendered here, from the routes actually registered, for both.
type API struct {
	mux    *http.ServeMux
	logger *slog.Logger
	routes []route // registration order, which is /metrics order
}

// route is one instrumented endpoint.
type route struct {
	pattern string
	latency *metrics.Histogram
}

// NewAPI returns an empty route table whose request records go to
// logger.
func NewAPI(logger *slog.Logger) *API {
	return &API{mux: http.NewServeMux(), logger: logger}
}

// Handle registers fn under a ServeMux pattern, creating the route's
// latency histogram.
func (a *API) Handle(pattern string, fn http.HandlerFunc) {
	h := metrics.NewLatencyHistogram()
	a.routes = append(a.routes, route{pattern: pattern, latency: h})
	a.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace := EnsureTrace(r)
		w.Header().Set(TraceHeader, trace)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		fn(sw, r)
		d := time.Since(start)
		h.Record(d)
		a.logger.Debug("http",
			"method", r.Method, "route", pattern, "status", sw.status,
			"trace", trace, "dur_ms", durToMs(d))
	})
}

// ServeHTTP dispatches to the registered routes.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// Endpoints snapshots the handler latency of every route that has
// served a request, keyed by pattern (the "endpoints" block of GET
// /v1/stats).
func (a *API) Endpoints() map[string]metrics.HistSnapshot {
	out := make(map[string]metrics.HistSnapshot, len(a.routes))
	for _, rt := range a.routes {
		if rt.latency.Count() > 0 {
			out[rt.pattern] = rt.latency.Snapshot()
		}
	}
	return out
}

// WriteMetrics renders the two request families every tier's GET
// /metrics page opens with.
func (a *API) WriteMetrics(p *metrics.Prom) {
	reqs := make([]metrics.PromSample, 0, len(a.routes))
	subs := make([]metrics.HistogramSub, 0, len(a.routes))
	for _, rt := range a.routes {
		lbl := []metrics.Label{{Name: "endpoint", Value: rt.pattern}}
		reqs = append(reqs, metrics.PromSample{Labels: lbl, Value: float64(rt.latency.Count())})
		subs = append(subs, metrics.HistogramSub{Labels: lbl, H: rt.latency})
	}
	p.Counter("occamy_requests_total", "HTTP requests served, by route pattern.", reqs...)
	p.HistogramFamily("occamy_request_duration_seconds", "HTTP handler latency, by route pattern.", subs...)
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// HTTPError writes a JSON error body with the given status.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteJSON writes v as a JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// WriteJobView answers GET /v1/runs/{id} with, byte for byte,
// json.NewEncoder(w).Encode(view) — but only the status envelope goes
// through encoding/json. The result is canonical already (Encode made
// it, or a cache restore checked it) and is written as stored, in
// pieces under a Content-Length: never re-compacted, never copied into
// one buffer. ?part=head leaves out the result's trace section, if it
// has one (scenario.SplitTrace); any other part is a 400.
func WriteJobView(w http.ResponseWriter, r *http.Request, view JobView) {
	result, closer := bytes.TrimSuffix(view.Result, []byte("\n")), "}\n"
	switch part := r.URL.Query().Get("part"); part {
	case "":
	case "head":
		if head, trace := scenario.SplitTrace(view.Result); trace != nil {
			result, closer = head, "}}\n"
		}
	default:
		HTTPError(w, http.StatusBadRequest, "unknown part %q: the only part is head", part)
		return
	}
	env, err := json.Marshal(view.JobStatus)
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if len(result) == 0 {
		closer = "\n" // no result yet: the envelope is the document
	} else {
		env = append(env[:len(env)-1], `,"result":`...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(env)+len(result)+len(closer)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(env)
	_, _ = w.Write(result)
	_, _ = io.WriteString(w, closer)
}

// durToMs renders a duration in milliseconds with µs precision, the
// same shape the latency snapshots use.
func durToMs(d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	return float64(d/time.Microsecond) / 1000
}
