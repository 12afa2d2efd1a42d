package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"occamy/internal/service"
)

// TestTierParity pins "one kernel": a malformed or over-limit
// submission draws the same status code and the same error string from
// a bare worker and from a router fronting it, because both decode with
// the same readers.
func TestTierParity(t *testing.T) {
	f := startFleet(t, 1, nil)
	spec, err := quickSpec(t, "quickstart").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	oversize := strings.Repeat(" ", 1<<20+1)
	manySpecs := `{"specs":[` + strings.TrimSuffix(strings.Repeat(string(spec)+",", 513), ",") + `]}`
	if len(manySpecs) > 1<<20 {
		t.Fatalf("513-spec batch is %d bytes: over the body bound, it would never reach the count cap", len(manySpecs))
	}

	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"runs: oversize body", "/v1/runs", oversize, http.StatusRequestEntityTooLarge},
		{"runs: bad JSON", "/v1/runs", "}{", http.StatusBadRequest},
		{"runs: bad scale", "/v1/runs?scale=galactic", string(spec), http.StatusBadRequest},
		{"runs: unknown catalog name", "/v1/runs?name=no-such-scenario", "", http.StatusNotFound},
		{"sweeps: oversize body", "/v1/sweeps", oversize, http.StatusBadRequest},
		{"sweeps: bad JSON", "/v1/sweeps", "}{", http.StatusBadRequest},
		{"sweeps: no axes", "/v1/sweeps", `{"name":"quickstart","scale":"quick"}`, http.StatusBadRequest},
		{"sweeps: unknown axis path", "/v1/sweeps", `{"name":"quickstart","scale":"quick","axes":["policy.levitation=1,2"]}`, http.StatusBadRequest},
		{"sweeps: over-cap grid", "/v1/sweeps", `{"name":"quickstart","scale":"quick","axes":["seed=` + strings.TrimSuffix(strings.Repeat("1,", 257), ",") + `"]}`, http.StatusBadRequest},
		{"sweeps: overflowing grid", "/v1/sweeps", `{"name":"quickstart","scale":"quick","axes":[` + strings.TrimSuffix(strings.Repeat(`"seed=`+strings.TrimSuffix(strings.Repeat("1,", 200), ",")+`",`, 12), ",") + `]}`, http.StatusBadRequest},
		{"sweeps: bad scale", "/v1/sweeps", `{"name":"quickstart","scale":"galactic","axes":["seed=1"]}`, http.StatusNotFound},
		{"sweeps: unknown catalog name", "/v1/sweeps", `{"name":"no-such-scenario","axes":["seed=1"]}`, http.StatusNotFound},
		{"batch: oversize body", "/v1/batch", oversize, http.StatusBadRequest},
		{"batch: bad JSON", "/v1/batch", "}{", http.StatusBadRequest},
		{"batch: 0 specs", "/v1/batch", `{"specs":[]}`, http.StatusBadRequest},
		{"batch: >512 specs", "/v1/batch", manySpecs, http.StatusBadRequest},
		{"batch: bad scale", "/v1/batch", `{"specs":[` + string(spec) + `],"scale":"galactic"}`, http.StatusBadRequest},
	} {
		var worker, router map[string]string
		wcode := post(t, f.workers[0].URL+tc.path, tc.body, &worker)
		rcode := post(t, f.router.URL+tc.path, tc.body, &router)
		if wcode != tc.status || rcode != tc.status {
			t.Errorf("%s: worker %d, router %d, want %d", tc.name, wcode, rcode, tc.status)
		}
		if worker["error"] == "" || worker["error"] != router["error"] {
			t.Errorf("%s: error strings differ:\nworker: %q\nrouter: %q", tc.name, worker["error"], router["error"])
		}
	}

	// Reads: the router forwards scale, stride and part escaped again, so
	// a value that decodes to "8&x" is the worker's 400 through either
	// tier and cannot smuggle a second parameter; ?part=head serves the
	// same traceless result from both, and a sweep — worker-run or
	// router-aggregated — has no parts.
	var run, wsweep, gsweep service.JobStatus
	if code := post(t, f.router.URL+"/v1/runs", string(spec), &run); code != http.StatusAccepted {
		t.Fatalf("run POST: status %d", code)
	}
	await(t, f.router.URL, run.ID)
	_, wid, _ := f.rt.parseRunID(run.ID)
	const sweepBody = `{"name":"quickstart","scale":"quick","axes":["policy.kind=dt,occamy"]}`
	if code := post(t, f.workers[0].URL+"/v1/sweeps", sweepBody, &wsweep); code != http.StatusAccepted {
		t.Fatalf("worker sweep POST: status %d", code)
	}
	if code := post(t, f.router.URL+"/v1/sweeps", sweepBody, &gsweep); code != http.StatusAccepted {
		t.Fatalf("router sweep POST: status %d", code)
	}
	await(t, f.workers[0].URL, wsweep.ID)
	await(t, f.router.URL, gsweep.ID)
	for _, tc := range []struct {
		name, worker, router string
		status               int
	}{
		{"export: scale smuggling a name", "/v1/scenarios/quickstart?scale=quick%26name%3Dx", "", http.StatusNotFound},
		{"export: escaped scale", "/v1/scenarios/quickstart?scale=qu%69ck", "", http.StatusOK},
		{"export: name smuggling a query", "/v1/scenarios/quickstart%3Fscale=galactic", "", http.StatusNotFound},
		{"trace: stride with an ampersand", "/v1/runs/" + wid + "/trace.csv?stride=8%26x", "/v1/runs/" + run.ID + "/trace.csv?stride=8%26x", http.StatusBadRequest},
		{"trace: stride smuggling a stride", "/v1/runs/" + wid + "/trace.csv?stride=x%26stride%3D8", "/v1/runs/" + run.ID + "/trace.csv?stride=x%26stride%3D8", http.StatusBadRequest},
		{"trace: escaped stride", "/v1/runs/" + wid + "/trace.csv?stride=%38", "/v1/runs/" + run.ID + "/trace.csv?stride=%38", http.StatusOK},
		{"run: id smuggling a part", "/v1/runs/" + wid + "%3Fpart=bogus", "/v1/runs/" + run.ID + "%3Fpart=bogus", http.StatusNotFound},
		{"run: part=head", "/v1/runs/" + wid + "?part=head", "/v1/runs/" + run.ID + "?part=head", http.StatusOK},
		{"run: part=bogus", "/v1/runs/" + wid + "?part=bogus", "/v1/runs/" + run.ID + "?part=bogus", http.StatusBadRequest},
		{"run: part with an ampersand", "/v1/runs/" + wid + "?part=head%26x", "/v1/runs/" + run.ID + "?part=head%26x", http.StatusBadRequest},
		{"sweep: part=head", "/v1/runs/" + wsweep.ID + "?part=head", "/v1/runs/" + gsweep.ID + "?part=head", http.StatusOK},
		{"sweep: part=bogus", "/v1/runs/" + wsweep.ID + "?part=bogus", "/v1/runs/" + gsweep.ID + "?part=bogus", http.StatusBadRequest},
	} {
		if tc.router == "" {
			tc.router = tc.worker
		}
		wcode, wbody := get(t, f.workers[0].URL+tc.worker)
		rcode, rbody := get(t, f.router.URL+tc.router)
		if wcode != tc.status || rcode != tc.status {
			t.Errorf("%s: worker %d, router %d, want %d", tc.name, wcode, rcode, tc.status)
			continue
		}
		// What must agree: a job view's result (ids and timestamps are
		// each tier's own), any other body — error, export, CSV — whole.
		comparable := func(body []byte) string {
			var view struct {
				Result json.RawMessage `json:"result"`
			}
			if json.Unmarshal(body, &view) == nil && len(view.Result) > 0 {
				return string(view.Result)
			}
			return string(body)
		}
		if comparable(wbody) != comparable(rbody) {
			t.Errorf("%s: replies differ:\nworker: %.200s\nrouter: %.200s", tc.name, wbody, rbody)
		}
		if strings.Contains(tc.name, "part=head") {
			var doc map[string]json.RawMessage
			if err := json.Unmarshal([]byte(comparable(rbody)), &doc); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			_, trace := doc["trace"]
			_, summary := doc["summary"]
			if isRun := strings.HasPrefix(tc.name, "run"); trace || summary != isRun {
				t.Errorf("%s: result has trace=%v summary=%v", tc.name, trace, summary)
			}
		}
	}
}

// get fetches a URL and returns its status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestRelayRejectsWhatIsNotAJobDocument pins the relay's one check: the
// router rewrites a worker's job document without parsing it, so a reply
// with the expected status that does not open with the id and close
// like a document is a 502, never relayed — through GET, POST and DELETE
// alike. A reply cut short of its Content-Length never gets that far.
func TestRelayRejectsWhatIsNotAJobDocument(t *testing.T) {
	var reply func(w http.ResponseWriter)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
		}
		reply(w)
	}))
	defer worker.Close()
	rt, err := NewRouter(Config{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	spec, err := quickSpec(t, "quickstart").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const good = `{"id":"r1","kind":"run","state":"done","result":{"schema":1}}` + "\n"
	body := func(s string) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) { _, _ = io.WriteString(w, s) }
	}
	for _, tc := range []struct {
		name   string
		reply  func(http.ResponseWriter)
		status int
	}{
		{"a job document", body(good), 0},
		{"garbage", body("<html>it works</html>\n"), http.StatusBadGateway},
		{"nothing", body(""), http.StatusBadGateway},
		{"a bare array", body(`[{"id":"r1"}]` + "\n"), http.StatusBadGateway},
		{"another first field", body(`{"kind":"run","id":"r1"}` + "\n"), http.StatusBadGateway},
		{"a document cut short", body(good[:len(good)/2]), http.StatusBadGateway},
		{"a document without its newline", body(good[:len(good)-1]), http.StatusBadGateway},
		{"a body short of its Content-Length", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(len(good)))
			_, _ = io.WriteString(w, good[:len(good)/2])
		}, http.StatusBadGateway},
	} {
		reply = tc.reply
		for _, call := range []struct{ method, path, body string }{
			{http.MethodGet, "/v1/runs/w0.r1", ""},
			{http.MethodGet, "/v1/runs/w0.r1?part=head", ""},
			{http.MethodPost, "/v1/runs", string(spec)},
			{http.MethodDelete, "/v1/runs/w0.r1", ""},
		} {
			req, err := http.NewRequest(call.method, router.URL+call.path, strings.NewReader(call.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := tc.status
			if want == 0 { // relayed under its own status, with the routed id
				want = http.StatusOK
				if call.method == http.MethodPost {
					want = http.StatusAccepted
				}
				if routed := `{"id":"w0.r1",` + good[len(`{"id":"r1",`):]; string(got) != routed {
					t.Errorf("%s %s: relayed %q, want %q", call.method, call.path, got, routed)
				}
			} else if !strings.Contains(string(got), `"error":"worker 0`) {
				t.Errorf("%s, %s %s: body %.120q does not name the worker", tc.name, call.method, call.path, got)
			}
			if resp.StatusCode != want {
				t.Errorf("%s, %s %s: status %d, want %d (body %.120q)", tc.name, call.method, call.path, resp.StatusCode, want, got)
			}
		}
	}
}

// TestRouterSweepLedgerBounded pins the shared ledger's pruning on the
// router: past the bound the oldest terminal sweeps expire (their ids
// 404), the ledger stops growing, and a pruned sweep resubmitted is
// still a sweep-cache hit. The production bound is
// service.DefaultMaxJobs; the test swaps in a small ledger to reach it.
func TestRouterSweepLedgerBounded(t *testing.T) {
	const bound = 4
	f := startFleet(t, 2, nil)
	f.rt.jobs = service.NewLedger("g", bound, f.rt.sweepCache, slog.New(slog.DiscardHandler), f.rt.startSweep)

	sweepBody := func(seed int) string {
		return fmt.Sprintf(`{"name":"quickstart","scale":"quick","axes":["seed=%d"]}`, seed)
	}
	var first service.JobStatus
	for seed := 1; seed <= 3*bound; seed++ {
		var st service.JobStatus
		if code := post(t, f.router.URL+"/v1/sweeps", sweepBody(seed), &st); code != http.StatusAccepted {
			t.Fatalf("sweep %d: status %d", seed, code)
		}
		if view := await(t, f.router.URL, st.ID); view.State != service.JobDone {
			t.Fatalf("sweep %d ended %s: %s", seed, view.State, view.Error)
		}
		if seed == 1 {
			first = st
		}
		if n := f.rt.jobs.Len(); n > bound {
			t.Fatalf("after %d sweeps the ledger holds %d jobs, bound is %d", seed, n, bound)
		}
	}

	resp, err := http.Get(f.router.URL + "/v1/runs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pruned sweep %s: status %d, want 404", first.ID, resp.StatusCode)
	}
	var again service.JobStatus
	if code := post(t, f.router.URL+"/v1/sweeps", sweepBody(1), &again); code != http.StatusAccepted {
		t.Fatalf("resubmission: status %d", code)
	}
	if !again.Cached || again.State != service.JobDone {
		t.Fatalf("pruned sweep resubmitted is not a sweep-cache hit: cached=%v state=%s", again.Cached, again.State)
	}
	if n := f.rt.jobs.Len(); n > bound {
		t.Fatalf("ledger holds %d jobs after the resubmission, bound is %d", n, bound)
	}
}

// hungWorker accepts every request and never answers it (until the
// caller hangs up or the test ends).
func hungWorker(t *testing.T) *httptest.Server {
	t.Helper()
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() {
		close(release)
		srv.Close()
	})
	return srv
}

// TestHungWorkerDoesNotHangRouter pins the context plumbing: a shard
// that accepts and never answers cannot pin a router handler past its
// client, nor a sweep past PointTimeout.
func TestHungWorkerDoesNotHangRouter(t *testing.T) {
	worker := hungWorker(t)
	rt, err := NewRouter(Config{Workers: []string{worker.URL}, PointTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	// probe is the same router behind a wrapper reporting each handler's
	// return (the requests below go one at a time).
	returned := make(chan string, 1)
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.Handler().ServeHTTP(w, r)
		returned <- r.Method + " " + r.URL.Path
	}))
	defer probe.Close()

	// Every proxied call dies with its client: the handler returns
	// promptly once the request is canceled.
	body, err := quickSpec(t, "quickstart").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/runs", string(body)},
		{http.MethodGet, "/v1/runs/w0.r1", ""},
		{http.MethodGet, "/v1/runs/w0.r1/trace.csv", ""},
		{http.MethodDelete, "/v1/runs/w0.r1", ""},
		{http.MethodGet, "/v1/runs", ""},
		{http.MethodGet, "/v1/stats", ""},
		{http.MethodGet, "/v1/cache", ""},
		{http.MethodGet, "/v1/scenarios", ""},
		{http.MethodPost, "/v1/batch", `{"specs":[` + string(body) + `]}`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, call.method, probe.URL+call.path, strings.NewReader(call.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Errorf("%s %s: answered %d by a worker that never answers", call.method, call.path, resp.StatusCode)
		}
		cancel()
		select {
		case got := <-returned:
			if want := call.method + " " + call.path; got != want {
				t.Fatalf("handler %q returned while waiting for %q", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s %s: router handler still blocked on the hung worker 10s after its client hung up", call.method, call.path)
		}
	}
	if n := rt.snapshot().WorkerErrors; n != 0 {
		t.Errorf("client hang-ups were counted as %d worker errors", n)
	}

	// A sweep point fails with the typed error inside PointTimeout …
	j := &service.Job{Spec: quickSpec(t, "quickstart"), Trace: "hung"}
	start := time.Now()
	_, err = rt.runPoint(j, 0, j.Spec)
	if !errors.Is(err, ErrPointTimeout) {
		t.Fatalf("runPoint against a hung shard: err = %v, want ErrPointTimeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("runPoint took %v against a 150ms PointTimeout", d)
	}
	// … and so the sweep that owns it ends failed, not running forever.
	var st service.JobStatus
	if code := post(t, router.URL+"/v1/sweeps", `{"name":"quickstart","scale":"quick","axes":["seed=1,2"]}`, &st); code != http.StatusAccepted {
		t.Fatalf("sweep POST: status %d", code)
	}
	view := await(t, router.URL, st.ID)
	if view.State != service.JobFailed || !strings.Contains(view.Error, ErrPointTimeout.Error()) {
		t.Fatalf("sweep over a hung shard ended %s: %q, want failed with %q", view.State, view.Error, ErrPointTimeout)
	}
	if n := rt.snapshot().WorkerErrors; n == 0 {
		t.Error("timed-out points were not counted as worker errors")
	}
}

// TestRouterStatsCountSweeps pins the router counters the shared ledger
// now feeds: sweeps and sweep-cache hits in GET /v1/stats.
func TestRouterStatsCountSweeps(t *testing.T) {
	f := startFleet(t, 1, nil)
	body := `{"name":"quickstart","scale":"quick","axes":["policy.kind=dt,occamy"]}`
	for i := 0; i < 2; i++ {
		var st service.JobStatus
		if code := post(t, f.router.URL+"/v1/sweeps", body, &st); code != http.StatusAccepted {
			t.Fatalf("sweep %d: status %d", i, code)
		}
		await(t, f.router.URL, st.ID)
	}
	resp, err := http.Get(f.router.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if c := st.Router.Counters; c.Sweeps != 2 || c.SweepCacheHits != 1 || c.SweepPoints != 2 || st.Router.SweepJobs != 2 {
		t.Fatalf("router ledger after a sweep and its repeat: %+v (sweep_jobs %d), want 2 sweeps, 1 cache hit, 2 points, 2 jobs", c, st.Router.SweepJobs)
	}
}

// countingTransport records how many body bytes each worker reply to a
// GET /v1/runs/{id} poll carried.
type countingTransport struct {
	mu    sync.Mutex
	polls []int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || !strings.HasPrefix(req.URL.Path, "/v1/runs/") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.polls = append(c.polls, len(body))
	c.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestSweepPointsPollTheHeadOnly pins what the aggregator moves: a sweep
// point keeps one summary row, so every poll of it — the one that finds
// it done included — reads the head of the result (under 8 KB), never
// the 17–19 KB document with its trace; the table it assembles is the
// one TestFleetSweepByteIdentity pins, and the full document is still
// on its home shard for a client that asks.
func TestSweepPointsPollTheHeadOnly(t *testing.T) {
	counter := &countingTransport{}
	f := startFleet(t, 2, func(cfg *Config) { cfg.Client = &http.Client{Transport: counter} })
	var st service.JobStatus
	if code := post(t, f.router.URL+"/v1/sweeps", `{"name":"burst-absorb","scale":"quick","axes":["policy.kind=dt,occamy","seed=1,2"]}`, &st); code != http.StatusAccepted {
		t.Fatalf("sweep POST: status %d", code)
	}
	if view := await(t, f.router.URL, st.ID); view.State != service.JobDone {
		t.Fatalf("sweep ended %s: %s", view.State, view.Error)
	}
	counter.mu.Lock()
	polls := append([]int(nil), counter.polls...)
	counter.mu.Unlock()
	if len(polls) < 4 {
		t.Fatalf("a 4-point sweep made %d polls", len(polls))
	}
	for _, n := range polls {
		if n >= 8<<10 {
			t.Errorf("a sweep point's poll read %d bytes; the head of a result is under 8 KB (all polls: %v)", n, polls)
			break
		}
	}
	// The documents the points left behind are whole.
	whole := 0
	for _, w := range f.workers {
		var page struct {
			Runs []service.JobStatus `json:"runs"`
		}
		_, body := get(t, w.URL+"/v1/runs")
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		for _, run := range page.Runs {
			if _, doc := get(t, w.URL+"/v1/runs/"+run.ID); len(doc) > 8<<10 && bytes.Contains(doc, []byte(`,"trace":{"sample_every":`)) {
				whole++
			}
		}
	}
	if whole != 4 {
		t.Errorf("%d of the 4 points' full documents are on the shards", whole)
	}
}
