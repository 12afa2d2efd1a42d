package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"occamy/internal/scenario"
)

// startServer runs the HTTP API over a fresh service.
func startServer(t testing.TB, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := newService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

// getJSON fetches and decodes a JSON endpoint.
func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// post sends a body and decodes the JSON response.
func post(t testing.TB, url, body string, v any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// awaitHTTP polls GET /v1/runs/{id} to a terminal state.
func awaitHTTP(t testing.TB, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var view JobView
		if code := getJSON(t, base+"/v1/runs/"+id, &view); code != http.StatusOK {
			t.Fatalf("GET run %s: %d", id, code)
		}
		if view.State.Terminal() {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish over HTTP", id)
	return JobView{}
}

// The acceptance path, end to end over real HTTP: export a catalog
// spec, POST it, poll to done, decode the result — its metrics must
// match a direct CLI-style run byte-for-byte — then POST the identical
// spec again and get the cached result without re-simulating.
func TestHTTPRunEndToEnd(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 2})

	// The catalog is served.
	var catalog struct {
		Scenarios []scenarioInfo `json:"scenarios"`
	}
	if code := getJSON(t, srv.URL+"/v1/scenarios", &catalog); code != http.StatusOK {
		t.Fatalf("GET /v1/scenarios: %d", code)
	}
	if len(catalog.Scenarios) < 10 {
		t.Fatalf("catalog lists %d scenarios", len(catalog.Scenarios))
	}

	// Export a template over HTTP — identical to the package's export.
	resp, err := http.Get(srv.URL + "/v1/scenarios/incast-storm-256?scale=quick")
	if err != nil {
		t.Fatal(err)
	}
	exported, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	spec := quickSpec(t, "incast-storm-256")
	want, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(exported) != string(want) {
		t.Error("HTTP export differs from Spec.Marshal")
	}

	// POST the exported spec body.
	var first JobStatus
	if code := post(t, srv.URL+"/v1/runs", string(exported), &first); code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d", code)
	}
	if first.Cached {
		t.Fatal("first POST reported cached")
	}
	view := awaitHTTP(t, srv.URL, first.ID)
	if view.State != JobDone {
		t.Fatalf("run ended %s (%s)", view.State, view.Error)
	}

	// Decoded result metrics match a direct run byte-for-byte.
	doc, err := scenario.DecodeResultDoc(view.Result)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	directBytes, err := res.EncodeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := scenario.DecodeResultDoc(directBytes)
	if err != nil {
		t.Fatal(err)
	}
	if docSummary, directSummary := doc.Summary, direct.Summary; !tableEqual(docSummary, directSummary) {
		t.Errorf("HTTP result summary differs from direct run:\n%+v\nvs\n%+v", docSummary, directSummary)
	}
	// Byte-for-byte after normalizing the trailing newline the JSON
	// embedding strips from the raw message.
	if a, b := strings.TrimRight(string(view.Result), "\n"), strings.TrimRight(string(directBytes), "\n"); a != b {
		t.Error("HTTP result document differs from direct run bytes")
	}

	// The identical POST is a cache hit, done on arrival.
	var second JobStatus
	if code := post(t, srv.URL+"/v1/runs", string(exported), &second); code != http.StatusAccepted {
		t.Fatalf("second POST: %d", code)
	}
	if !second.Cached || second.State != JobDone {
		t.Fatalf("second POST not a cache hit: %+v", second)
	}

	// The trace endpoint serves CSV, full and strided.
	tr, err := http.Get(srv.URL + "/v1/runs/" + first.ID + "/trace.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace.csv: %d", tr.StatusCode)
	}
	csv, err := io.ReadAll(tr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "time_s,") {
		t.Errorf("trace.csv does not look like a trace: %.80s", csv)
	}
	if code := getJSON(t, srv.URL+"/v1/runs/"+first.ID+"/trace.csv?stride=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bad stride: %d, want 400", code)
	}
}

func tableEqual(a, b scenario.TableDoc) bool {
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	return string(aj) == string(bj)
}

// Catalog submission via query (?name=&scale=), used by the CI smoke.
func TestHTTPCatalogSubmit(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 1})
	var st JobStatus
	if code := post(t, srv.URL+"/v1/runs?name=quickstart&scale=quick", "", &st); code != http.StatusAccepted {
		t.Fatalf("catalog POST: %d", code)
	}
	if view := awaitHTTP(t, srv.URL, st.ID); view.State != JobDone {
		t.Fatalf("catalog run ended %s (%s)", view.State, view.Error)
	}
	if code := post(t, srv.URL+"/v1/runs?name=no-such-scenario", "", nil); code != http.StatusNotFound {
		t.Errorf("unknown catalog name: %d, want 404", code)
	}
	if code := post(t, srv.URL+"/v1/runs", "", nil); code != http.StatusBadRequest {
		t.Errorf("empty body, no name: %d, want 400", code)
	}
	// Figure harnesses have no spec to run.
	if code := post(t, srv.URL+"/v1/runs?name=fig6", "", nil); code != http.StatusNotFound {
		t.Errorf("figure harness submit: %d, want 404", code)
	}
}

// Malformed submissions are client errors with the parser's message,
// never 5xx, never a panic.
func TestHTTPBadRequests(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"not json":      "}{",
		"unknown field": `{"name":"x","bogus":1,"topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[{"kind":"background","load":0.5}]}`,
		"no name":       `{"topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[{"kind":"background","load":0.5}]}`,
		"no workloads":  `{"name":"x","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[]}`,
		"bad policy":    `{"name":"x","topology":{"kind":"single-switch"},"policy":{"kind":"levitation"},"workloads":[{"kind":"background","load":0.5}]}`,
		"negative load": `{"name":"x","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[{"kind":"background","load":-1}]}`,
		"trailing":      `{"name":"x","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[{"kind":"background","load":0.5}]}[]`,
		"array":         `[1,2,3]`,
		"huge dst_port": `{"name":"x","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},"workloads":[{"kind":"cbr","rate_bps":1e9,"dst_port":999}]}`,
	} {
		var errBody map[string]string
		code := post(t, srv.URL+"/v1/runs", body, &errBody)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if errBody["error"] == "" {
			t.Errorf("%s: no error message in response", name)
		}
	}
	// Unknown run / trace / cancel ids are 404s.
	if code := getJSON(t, srv.URL+"/v1/runs/r999", nil); code != http.StatusNotFound {
		t.Errorf("unknown run: %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/runs/r999/trace.csv", nil); code != http.StatusNotFound {
		t.Errorf("unknown trace: %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/r999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown cancel: %d", resp.StatusCode)
	}
}

// Sweeps over HTTP: grid table equals the CLI sweep, bad requests 400.
func TestHTTPSweep(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 2})
	var st JobStatus
	body := `{"name":"burst-absorb","scale":"quick","axes":["policy.kind=dt,occamy"]}`
	if code := post(t, srv.URL+"/v1/sweeps", body, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %d", code)
	}
	view := awaitHTTP(t, srv.URL, st.ID)
	if view.State != JobDone {
		t.Fatalf("sweep ended %s (%s)", view.State, view.Error)
	}
	var tab scenario.TableDoc
	if err := json.Unmarshal(view.Result, &tab); err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Errorf("sweep table has %d rows, want 2", len(tab.Rows))
	}
	for name, bad := range map[string]string{
		"no axes":       `{"name":"burst-absorb"}`,
		"bad axis":      `{"name":"burst-absorb","axes":["nonsense"]}`,
		"unknown field": `{"name":"burst-absorb","axes":["policy.gravity=1,2"]}`,
		"not json":      `{{`,
	} {
		if code := post(t, srv.URL+"/v1/sweeps", bad, nil); code != http.StatusBadRequest {
			t.Errorf("sweep %s: %d, want 400", name, code)
		}
	}
}

// FuzzPostRun drives arbitrary bodies through the submission handler:
// the server must never panic, and anything scenario.ParseSpec rejects
// must come back 4xx. Seeded with every exportable catalog entry (valid
// specs exercise the accept path, which the fuzzer then mutates into
// near-valid garbage) plus ParseSpec's own corner cases.
func FuzzPostRun(f *testing.F) {
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		if sc.Tables != nil {
			continue
		}
		data, err := sc.SpecAt(scenario.ScaleQuick).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","bogus":true}`))
	f.Add([]byte(`[{}]`))
	f.Add([]byte(`nul`))
	f.Add([]byte(``))
	// Malformed fault blocks must come back 4xx, never 5xx.
	f.Add([]byte(`{"name":"x","topology":{"kind":"single-switch"},"policy":{"kind":"dt"},` +
		`"workloads":[{"kind":"background","load":0.5}],"faults":{"all":{"loss_prob":7}}}`))
	f.Add([]byte(`{"name":"x","faults":{"spine-core":{"loss_prob":0.1}}}`))
	f.Add([]byte(`{"name":"x","faults":{"all":{"jitter_max":"-4us"}}}`))

	s, err := New(Config{Workers: 1, QueueDepth: 64})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic, whatever the body
		code := rec.Code
		_, parseErr := scenario.ParseSpec(body)
		switch {
		case parseErr == nil && len(strings.TrimSpace(string(body))) > 0:
			// A spec the parser accepts must be accepted or refused only
			// for capacity (full queue), never as malformed.
			if code != http.StatusAccepted && code != http.StatusServiceUnavailable {
				t.Fatalf("valid spec rejected with %d: %.120s", code, body)
			}
		case code >= 500:
			t.Fatalf("server error %d on malformed body: %.120s", code, body)
		}
	})
}

// An over-cap sweep grid is a 400 (client error), not a 503: retrying
// it cannot succeed, the grid itself is too big.
func TestHTTPSweepCap(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 1, MaxSweepPoints: 4})

	var errBody map[string]string
	code := post(t, srv.URL+"/v1/sweeps",
		`{"name":"burst-absorb","axes":["policy.kind=dt,occamy","policy.alpha=1,2,4"]}`,
		&errBody)
	if code != http.StatusBadRequest {
		t.Fatalf("6-point grid under cap 4: status %d, want 400", code)
	}
	if !strings.Contains(errBody["error"], "grid") {
		t.Fatalf("error body %q does not mention the grid cap", errBody["error"])
	}

	var st JobStatus
	if code := post(t, srv.URL+"/v1/sweeps",
		`{"name":"burst-absorb","axes":["policy.kind=dt,occamy"]}`, &st); code != http.StatusAccepted {
		t.Fatalf("2-point grid refused: status %d", code)
	}
	awaitHTTP(t, srv.URL, st.ID)
}

// GET /v1/stats serves the SLO snapshot: counters that reconcile,
// per-endpoint latency histograms, and gauges that drain with the work.
func TestHTTPStats(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 2})

	var st JobStatus
	if code := post(t, srv.URL+"/v1/runs?name=burst-absorb&scale=quick", "", &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	awaitHTTP(t, srv.URL, st.ID)
	// Resubmit: a counted cache hit.
	if code := post(t, srv.URL+"/v1/runs?name=burst-absorb&scale=quick", "", &st); code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}

	var stats Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", code)
	}
	c := stats.Counters
	if c.Submitted != 2 || c.CacheHits != 1 || c.Enqueued != 1 || c.Done != 1 {
		t.Fatalf("counters %+v, want submitted 2 / hits 1 / enqueued 1 / done 1", c)
	}
	if got := c.CacheHits + c.Coalesced + c.Enqueued + c.Refused; got != c.Submitted {
		t.Fatalf("submission identity broken: %+v", c)
	}
	if stats.Workers != 2 || stats.QueueCap <= 0 {
		t.Fatalf("pool shape %+v", stats)
	}
	if stats.Queued != 0 || stats.Running != 0 {
		t.Fatalf("gauges not drained: queued %d running %d", stats.Queued, stats.Running)
	}
	if stats.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", stats.UptimeSeconds)
	}
	ep, ok := stats.Endpoints["POST /v1/runs"]
	if !ok || ep.Count != 2 {
		t.Fatalf("POST /v1/runs histogram %+v (present %v), want count 2", ep, ok)
	}
	if ep.P50Ms < 0 || ep.P99Ms < ep.P50Ms {
		t.Fatalf("histogram quantiles broken: %+v", ep)
	}
	// Untouched endpoints are omitted, not zero-filled.
	if _, ok := stats.Endpoints["DELETE /v1/runs/{id}"]; ok {
		t.Fatal("never-hit endpoint present in stats")
	}
}
