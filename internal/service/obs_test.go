package service

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"occamy/internal/metrics"
)

// decodeBody decodes a JSON response body.
func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// --- trace propagation ------------------------------------------------

// doTraced POSTs a catalog submit with an optional X-Occamy-Trace header
// and returns the echoed header plus the decoded status.
func doTraced(t *testing.T, url, trace string) (echo string, st JobStatus) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trace != "" {
		req.Header.Set(TraceHeader, trace)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	decodeBody(t, resp, &st)
	return resp.Header.Get(TraceHeader), st
}

// TestTraceEchoEndToEnd pins the trace contract on a single worker: a
// client-supplied trace is echoed on the response, stamped on the job,
// and survives to the terminal status; absent or invalid traces are
// replaced by a minted 16-hex root.
func TestTraceEchoEndToEnd(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 2})
	url := srv.URL + "/v1/runs?name=quickstart&scale=quick"

	echo, st := doTraced(t, url, "it-test.7")
	if echo != "it-test.7" {
		t.Fatalf("response header trace = %q, want the client's", echo)
	}
	if st.Trace != "it-test.7" {
		t.Fatalf("JobStatus.Trace = %q, want the client's", st.Trace)
	}
	if view := awaitHTTP(t, srv.URL, st.ID); view.Trace != "it-test.7" {
		t.Fatalf("terminal status trace = %q, want the client's", view.Trace)
	}

	// No header: the middleware mints a root and still echoes it.
	echo, st = doTraced(t, srv.URL+"/v1/runs?name=burst-absorb&scale=quick", "")
	if len(echo) != 16 || strings.Trim(echo, "0123456789abcdef") != "" {
		t.Fatalf("minted trace %q is not 16 hex chars", echo)
	}
	if st.Trace != echo {
		t.Fatalf("status trace %q != echoed mint %q", st.Trace, echo)
	}

	// Invalid characters are rejected, not forwarded.
	echo, _ = doTraced(t, srv.URL+"/v1/runs?name=quickstart&scale=quick", "bad!trace")
	if strings.Contains(echo, "!") || len(echo) != 16 {
		t.Fatalf("invalid client trace passed through as %q", echo)
	}
}

// TestBatchChildTraces verifies each batch item gets a ".N" child of
// the batch root, in request order.
func TestBatchChildTraces(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 2})
	spec1, err := CatalogSpec("quickstart", "quick")
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := CatalogSpec("burst-absorb", "quick")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := spec1.Marshal()
	b2, _ := spec2.Marshal()
	body := `{"specs":[` + string(b1) + `,` + string(b2) + `]}`

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, "batch-root")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Runs []BatchItem `json:"runs"`
	}
	decodeBody(t, resp, &page)
	if len(page.Runs) != 2 {
		t.Fatalf("got %d batch items, want 2", len(page.Runs))
	}
	for i, item := range page.Runs {
		if item.Job == nil {
			t.Fatalf("item %d errored: %s", i, item.Error)
		}
		want := "batch-root." + strconv.Itoa(i)
		if item.Job.Trace != want {
			t.Fatalf("item %d trace = %q, want %q", i, item.Job.Trace, want)
		}
	}
}

// --- live progress ----------------------------------------------------

// TestProgressMonotoneToDone pins the satellite invariant: the progress
// snapshot's fraction is monotone non-decreasing while the job runs and
// reaches exactly 1.0 once it is done, and the terminal status carries
// the queue-wait and run durations.
func TestProgressMonotoneToDone(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	spec, err := CatalogSpec("mixed-load-90", "quick")
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	var fracs []float64
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		cur, ok := s.Get(st.ID)
		if !ok {
			t.Fatalf("job %s vanished", st.ID)
		}
		if cur.Progress != nil {
			fracs = append(fracs, cur.Progress.Fraction)
		}
		if cur.State.Terminal() {
			if cur.State != JobDone {
				t.Fatalf("job ended %s: %s", cur.State, cur.Error)
			}
			if cur.Progress == nil {
				t.Fatal("terminal status has no progress block")
			}
			if cur.Progress.Fraction != 1 {
				t.Fatalf("done job fraction = %v, want exactly 1", cur.Progress.Fraction)
			}
			if cur.QueueWaitMs < 0 {
				t.Fatalf("queue_wait_ms = %v", cur.QueueWaitMs)
			}
			if cur.RunMs <= 0 {
				t.Fatalf("run_ms = %v, want > 0 for a job that simulated", cur.RunMs)
			}
			if cur.Progress.Events == 0 {
				t.Fatal("done job reports zero processed events")
			}
			if !sort.Float64sAreSorted(fracs) {
				t.Fatalf("progress fractions regressed: %v", fracs)
			}
			return
		}
	}
	t.Fatal("job did not finish")
}

// --- /metrics ---------------------------------------------------------

// scrape fetches /metrics and parses the sample lines into a map keyed
// by the full series (name plus label block).
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.PromContentType {
		t.Fatalf("content type %q, want %q", ct, metrics.PromContentType)
	}
	samples := make(map[string]float64)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable metrics line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestMetricsReconcileWithStats pins the exposition against the ledger:
// the /metrics counters must equal the /v1/stats counters they mirror,
// request counts must cover the traffic just sent, and the request
// histogram's +Inf bucket must equal its _count.
func TestMetricsReconcileWithStats(t *testing.T) {
	svc, srv := startServer(t, Config{Workers: 2, CacheDir: t.TempDir()})

	// Generate some ledger traffic: a run to done, a duplicate (cache
	// hit), and one stats poll.
	_, st := doTraced(t, srv.URL+"/v1/runs?name=quickstart&scale=quick", "")
	awaitHTTP(t, srv.URL, st.ID)
	_, st2 := doTraced(t, srv.URL+"/v1/runs?name=quickstart&scale=quick", "")
	if !st2.Cached {
		t.Fatalf("resubmission not a cache hit: %+v", st2)
	}
	if code := getJSON(t, srv.URL+"/v1/stats", nil); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	var cache CacheStats
	if code := getJSON(t, srv.URL+"/v1/cache", &cache); code != http.StatusOK {
		t.Fatalf("GET /v1/cache: %d", code)
	}

	stats := svc.Stats()
	m := scrape(t, srv.URL)
	if stats.Cache.Persisted != 1 || stats.Cache.LogBytes == 0 ||
		cache.Persisted != stats.Cache.Persisted || cache.LogBytes != stats.Cache.LogBytes {
		t.Fatalf("log stats: /v1/stats %+v, /v1/cache %+v, want one record", stats.Cache, cache)
	}

	ledger := map[string]int64{
		"occamy_jobs_submitted_total":                  stats.Counters.Submitted,
		`occamy_submissions_total{result="cache_hit"}`: stats.Counters.CacheHits,
		`occamy_submissions_total{result="coalesced"}`: stats.Counters.Coalesced,
		`occamy_submissions_total{result="enqueued"}`:  stats.Counters.Enqueued,
		`occamy_submissions_total{result="refused"}`:   stats.Counters.Refused,
		`occamy_jobs_finished_total{state="done"}`:     stats.Counters.Done,
		`occamy_jobs_finished_total{state="failed"}`:   stats.Counters.Failed,
		`occamy_jobs_finished_total{state="canceled"}`: stats.Counters.Canceled,
		`occamy_cache_hits_total`:                      int64(stats.Cache.Hits),
		`occamy_cache_persisted`:                       int64(stats.Cache.Persisted),
		`occamy_cache_log_bytes`:                       stats.Cache.LogBytes,
	}
	for series, want := range ledger {
		got, ok := m[series]
		if !ok {
			t.Errorf("series %s missing from /metrics", series)
			continue
		}
		if got != float64(want) {
			t.Errorf("%s = %v, /v1/stats says %d", series, got, want)
		}
	}
	if m["occamy_jobs_submitted_total"] < 2 {
		t.Fatalf("submitted_total = %v after two submits", m["occamy_jobs_submitted_total"])
	}
	if m[`occamy_requests_total{endpoint="POST /v1/runs"}`] < 2 {
		t.Fatalf("requests_total for POST /v1/runs = %v, want >= 2",
			m[`occamy_requests_total{endpoint="POST /v1/runs"}`])
	}

	// Histogram self-consistency on the endpoint that definitely saw
	// traffic: cumulative +Inf bucket == _count.
	inf := m[`occamy_request_duration_seconds_bucket{endpoint="POST /v1/runs",le="+Inf"}`]
	count := m[`occamy_request_duration_seconds_count{endpoint="POST /v1/runs"}`]
	if count == 0 || inf != count {
		t.Fatalf("request histogram +Inf %v vs _count %v", inf, count)
	}
}
