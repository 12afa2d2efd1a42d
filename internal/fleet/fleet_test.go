package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"occamy/internal/scenario"
	"occamy/internal/service"
)

// --- ring -------------------------------------------------------------

// TestRingPlacement pins the consistent-hash contract: deterministic,
// order-invariant, and reasonably balanced.
func TestRingPlacement(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c", "http://d"}
	ring, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reordering the node list must not move a single key: the ring
	// hashes names, not positions.
	shuffled, err := NewRing([]string{"http://c", "http://a", "http://d", "http://b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("sha256:%064d", i)
		a := ring.Nodes()[ring.Lookup(key)]
		b := shuffled.Nodes()[shuffled.Lookup(key)]
		if a != b {
			t.Fatalf("key %q: %s vs %s after reordering nodes", key, a, b)
		}
		counts[a]++
	}
	for _, n := range nodes {
		if share := float64(counts[n]) / 10000; share < 0.10 || share > 0.45 {
			t.Fatalf("node %s owns %.1f%% of keys; want a roughly uniform spread: %v", n, 100*share, counts)
		}
	}

	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"http://a", "http://a"}, 0); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

// --- rate limiter -----------------------------------------------------

// TestRateLimiter pins the token-bucket arithmetic with an injected
// clock: burst, denial with a correct retry hint, refill, recovery, and
// per-key isolation.
func TestRateLimiter(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewRateLimiter(2, 2) // 2 tokens/s, burst 2
	l.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("alice"); !ok {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	ok, retry := l.Allow("alice")
	if ok {
		t.Fatal("request past burst allowed")
	}
	if retry != 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 500ms (1 token at 2/s)", retry)
	}
	// A different client has its own bucket.
	if ok, _ := l.Allow("bob"); !ok {
		t.Fatal("fresh client denied by another client's exhaustion")
	}
	// After the hinted wait, exactly one token is back.
	now = now.Add(retry)
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("request denied after the hinted retry wait")
	}
	if ok, _ := l.Allow("alice"); ok {
		t.Fatal("second request allowed after a one-token refill")
	}

	// AllowN is all-or-nothing, and a charge above burst stays
	// satisfiable (clamped to burst).
	now = now.Add(time.Hour)
	if ok, _ := l.AllowN("alice", 50); !ok {
		t.Fatal("burst-clamped batch denied on a full bucket")
	}

	// rate <= 0 disables limiting entirely.
	open := NewRateLimiter(0, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := open.Allow("x"); !ok {
			t.Fatal("disabled limiter denied")
		}
	}
}

// --- fleet e2e --------------------------------------------------------

// testFleet is an in-process fleet: n workers behind one router, all on
// httptest servers.
type testFleet struct {
	workers []*httptest.Server
	svcs    []*service.Service
	router  *httptest.Server
	rt      *Router
}

func startFleet(t *testing.T, n int, mod func(*Config)) *testFleet {
	t.Helper()
	f := &testFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		svc, err := service.New(service.Config{Workers: 2, CacheBytes: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		f.svcs = append(f.svcs, svc)
		f.workers = append(f.workers, ts)
		urls[i] = ts.URL
	}
	cfg := Config{Workers: urls, PollInterval: 2 * time.Millisecond, PointTimeout: 60 * time.Second}
	if mod != nil {
		mod(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	f.router = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		f.router.Close()
		for i := range f.workers {
			f.workers[i].Close()
			f.svcs[i].Close()
		}
	})
	return f
}

// post decodes a POST's JSON response into out and returns the status.
func post(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding POST %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// await polls the router for a job until it is terminal.
func await(t *testing.T, base, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view service.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view.State.Terminal() {
			return view
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish through the router", id)
	return service.JobView{}
}

func quickSpec(t *testing.T, name string) scenario.Spec {
	t.Helper()
	spec, err := service.CatalogSpec(name, "quick")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestFleetCacheHitAcrossRequests pins the tentpole invariant: the
// router homes equal specs on one shard, so a resubmission is a
// fleet-wide cache hit no matter how many workers there are — and
// exactly one worker ever saw the spec.
func TestFleetCacheHitAcrossRequests(t *testing.T) {
	f := startFleet(t, 3, nil)
	body, err := quickSpec(t, "burst-absorb").Marshal()
	if err != nil {
		t.Fatal(err)
	}

	var first service.JobStatus
	if code := post(t, f.router.URL+"/v1/runs", string(body), &first); code != http.StatusAccepted {
		t.Fatalf("first POST: status %d", code)
	}
	if !strings.HasPrefix(first.ID, "w") {
		t.Fatalf("router job ID %q lacks the shard prefix", first.ID)
	}
	if view := await(t, f.router.URL, first.ID); view.State != service.JobDone {
		t.Fatalf("first run ended %s: %s", view.State, view.Error)
	}

	var second service.JobStatus
	if code := post(t, f.router.URL+"/v1/runs", string(body), &second); code != http.StatusAccepted {
		t.Fatalf("second POST: status %d", code)
	}
	if !second.Cached || second.State != service.JobDone {
		t.Fatalf("resubmission not a cache hit: cached=%v state=%s", second.Cached, second.State)
	}

	// Exactly one shard saw both submissions; the others saw nothing.
	sawLoad := 0
	for i, svc := range f.svcs {
		c := svc.Stats().Counters
		switch c.Submitted {
		case 0:
		case 2:
			sawLoad++
			if c.CacheHits != 1 {
				t.Fatalf("home shard %d: %d cache hits, want 1", i, c.CacheHits)
			}
		default:
			t.Fatalf("shard %d saw %d submissions; consistent hashing should give one shard both", i, c.Submitted)
		}
	}
	if sawLoad != 1 {
		t.Fatalf("%d shards saw the spec, want exactly 1", sawLoad)
	}

	// The merged fleet ledger reconciles: submitted = cache_hits +
	// coalesced + enqueued + refused, summed across workers.
	resp, err := http.Get(f.router.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	c := st.Counters
	if c.Submitted != 2 || c.CacheHits+c.Coalesced+c.Enqueued+c.Refused != c.Submitted {
		t.Fatalf("fleet ledger does not reconcile: %+v", c)
	}
	if st.Router.Counters.Routed != 2 {
		t.Fatalf("router routed %d, want 2", st.Router.Counters.Routed)
	}
	if len(st.Fleet) != 3 {
		t.Fatalf("fleet stats carries %d workers, want 3", len(st.Fleet))
	}
}

// TestFleetSweepByteIdentity pins the aggregation contract: a sweep
// fanned across the fleet produces the byte-identical table a single
// worker computes for the same grid.
func TestFleetSweepByteIdentity(t *testing.T) {
	// Single-node reference: one service runs the whole grid itself.
	single, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	spec := quickSpec(t, "burst-absorb")
	axes := []scenario.SweepAxis{{Path: "policy.kind", Values: []string{"dt", "occamy"}}}
	st, err := single.SubmitSweep(spec, axes)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, ok := single.Get(st.ID)
		if !ok {
			t.Fatalf("sweep %s vanished", st.ID)
		}
		if cur.State.Terminal() {
			if cur.State != service.JobDone {
				t.Fatalf("single-node sweep ended %s: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("single-node sweep did not finish")
		}
		time.Sleep(3 * time.Millisecond)
	}
	want, ok := single.Result(st.ID)
	if !ok {
		t.Fatal("single-node sweep has no result")
	}

	// Fleet: the same grid through the router over two workers.
	f := startFleet(t, 2, nil)
	sweepBody := `{"name":"burst-absorb","scale":"quick","axes":["policy.kind=dt,occamy"]}`
	var fst service.JobStatus
	if code := post(t, f.router.URL+"/v1/sweeps", sweepBody, &fst); code != http.StatusAccepted {
		t.Fatalf("fleet sweep POST: status %d", code)
	}
	if !strings.HasPrefix(fst.ID, "g") || fst.Kind != "sweep" {
		t.Fatalf("router sweep job %q kind %q, want g-prefixed sweep", fst.ID, fst.Kind)
	}
	view := await(t, f.router.URL, fst.ID)
	if view.State != service.JobDone {
		t.Fatalf("fleet sweep ended %s: %s", view.State, view.Error)
	}
	got := string(view.Result)
	if a, b := strings.TrimRight(got, "\n"), strings.TrimRight(string(want), "\n"); a != b {
		t.Errorf("fleet sweep table differs from single-node bytes:\nfleet:  %s\nsingle: %s", a, b)
	}

	// Resubmitting the same grid hits the router's sweep cache.
	var again service.JobStatus
	if code := post(t, f.router.URL+"/v1/sweeps", sweepBody, &again); code != http.StatusAccepted {
		t.Fatalf("sweep resubmit: status %d", code)
	}
	if !again.Cached || again.State != service.JobDone {
		t.Fatalf("sweep resubmission not a cache hit: cached=%v state=%s", again.Cached, again.State)
	}
	if cached := await(t, f.router.URL, again.ID); strings.TrimRight(string(cached.Result), "\n") != strings.TrimRight(got, "\n") {
		t.Error("cached sweep result differs from the computed one")
	}
}

// TestFleetDeadWorkerDegrades pins the failure contract: killing one
// worker turns only its shard's submissions into errors; the remaining
// shards keep serving, and the merged stats report the dead worker.
func TestFleetDeadWorkerDegrades(t *testing.T) {
	f := startFleet(t, 2, nil)

	// Find specs homed on each shard by perturbing the seed.
	base := quickSpec(t, "quickstart")
	ring, err := NewRing([]string{f.workers[0].URL, f.workers[1].URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	homed := map[int]scenario.Spec{}
	for seed := uint64(1); len(homed) < 2 && seed < 100; seed++ {
		sp := base
		sp.Seed = seed
		fp, err := sp.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		shard := ring.Lookup(fp)
		if _, ok := homed[shard]; !ok {
			homed[shard] = sp
		}
	}
	if len(homed) < 2 {
		t.Fatal("could not find specs homed on both shards")
	}

	f.workers[1].Close() // kill shard 1; its service keeps running but is unreachable

	bodyFor := func(sp scenario.Spec) string {
		b, err := sp.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var st service.JobStatus
	if code := post(t, f.router.URL+"/v1/runs", bodyFor(homed[0]), &st); code != http.StatusAccepted {
		t.Fatalf("live-shard submission: status %d", code)
	}
	if view := await(t, f.router.URL, st.ID); view.State != service.JobDone {
		t.Fatalf("live-shard run ended %s: %s", view.State, view.Error)
	}
	var errBody map[string]string
	if code := post(t, f.router.URL+"/v1/runs", bodyFor(homed[1]), &errBody); code != http.StatusBadGateway {
		t.Fatalf("dead-shard submission: status %d, want 502", code)
	}
	if errBody["error"] == "" {
		t.Fatal("dead-shard 502 carries no error body")
	}

	// The merged stats still serve, flagging the dead worker.
	resp, err := http.Get(f.router.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fleet[1].Error == "" || stats.Fleet[1].Stats != nil {
		t.Fatalf("dead worker not flagged in fleet stats: %+v", stats.Fleet[1])
	}
	if stats.Fleet[0].Error != "" || stats.Fleet[0].Stats == nil {
		t.Fatalf("live worker missing from fleet stats: %+v", stats.Fleet[0])
	}
	if stats.Router.Counters.WorkerErrors == 0 {
		t.Fatal("router counted no worker errors after a dead-shard submission")
	}
}

// TestFleetRateLimit429 pins the admission contract: a client hammering
// past its bucket draws 429 + Retry-After, and recovers after backing
// off for the hinted wait.
func TestFleetRateLimit429(t *testing.T) {
	f := startFleet(t, 1, func(cfg *Config) {
		cfg.RatePerClient = 20
		cfg.Burst = 2
	})
	submit := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, f.router.URL+"/v1/runs?name=quickstart&scale=quick", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", "hammer")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	limited := 0
	var retryAfter string
	for i := 0; i < 10; i++ {
		resp := submit()
		if resp.StatusCode == http.StatusTooManyRequests {
			limited++
			retryAfter = resp.Header.Get("Retry-After")
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if limited == 0 {
		t.Fatal("10 rapid submissions with burst 2 drew no 429")
	}
	if retryAfter == "" {
		t.Fatal("429 carried no Retry-After header")
	}

	// Back off long enough for several tokens and the client recovers.
	time.Sleep(300 * time.Millisecond)
	resp := submit()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-backoff submission: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()

	// Other clients were never limited (per-client buckets).
	var st service.JobStatus
	if code := post(t, f.router.URL+"/v1/runs?name=quickstart&scale=quick", "", &st); code != http.StatusAccepted {
		t.Fatalf("unlimited client: status %d", code)
	}
}

// TestFleetBatch pins POST /v1/batch through the router: one POST,
// many shard-routed job IDs, per-item errors, request order preserved.
func TestFleetBatch(t *testing.T) {
	f := startFleet(t, 2, nil)

	sp1 := quickSpec(t, "quickstart")
	sp2 := quickSpec(t, "burst-absorb")
	b1, _ := json.Marshal(sp1)
	b2, _ := json.Marshal(sp2)
	body := fmt.Sprintf(`{"specs":[%s,%s,{"name":"nonsense","bogus":1},%s]}`, b1, b2, b1)

	var page struct {
		Runs []service.BatchItem `json:"runs"`
	}
	if code := post(t, f.router.URL+"/v1/batch", body, &page); code != http.StatusAccepted {
		t.Fatalf("batch POST: status %d", code)
	}
	if len(page.Runs) != 4 {
		t.Fatalf("batch returned %d items, want 4", len(page.Runs))
	}
	if page.Runs[2].Job != nil || page.Runs[2].Code != http.StatusBadRequest {
		t.Fatalf("malformed spec item: %+v, want a 400", page.Runs[2])
	}
	for _, i := range []int{0, 1, 3} {
		item := page.Runs[i]
		if item.Job == nil {
			t.Fatalf("item %d errored: %s", i, item.Error)
		}
		if !strings.HasPrefix(item.Job.ID, "w") {
			t.Fatalf("item %d job ID %q lacks the shard prefix", i, item.Job.ID)
		}
		if view := await(t, f.router.URL, item.Job.ID); view.State != service.JobDone {
			t.Fatalf("item %d ended %s: %s", i, view.State, view.Error)
		}
	}
	// Items 0 and 3 are the same spec: same home shard, coalesced or
	// cache-hit there — never simulated twice.
	var hits, coalesced int64
	for _, svc := range f.svcs {
		c := svc.Stats().Counters
		hits += c.CacheHits
		coalesced += c.Coalesced
	}
	if hits+coalesced == 0 {
		t.Fatal("duplicate batch specs neither coalesced nor hit the cache")
	}

	// A run submitted via batch serves its trace through the router.
	resp, err := http.Get(f.router.URL + "/v1/runs/" + page.Runs[0].Job.ID + "/trace.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/csv") {
		t.Fatalf("trace through router: status %d type %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "time_s") {
		t.Fatalf("trace CSV header missing: %q", buf.String()[:min(40, buf.Len())])
	}
}

// TestFleetJobListMerges pins GET /v1/runs across the fleet: worker
// jobs appear with shard-routable IDs next to router-owned sweeps.
func TestFleetJobListMerges(t *testing.T) {
	f := startFleet(t, 2, nil)
	var st service.JobStatus
	if code := post(t, f.router.URL+"/v1/runs?name=quickstart&scale=quick", "", &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	await(t, f.router.URL, st.ID)
	var sw service.JobStatus
	if code := post(t, f.router.URL+"/v1/sweeps",
		`{"name":"quickstart","scale":"quick","axes":["policy.kind=dt,occamy"]}`, &sw); code != http.StatusAccepted {
		t.Fatalf("sweep: status %d", code)
	}
	await(t, f.router.URL, sw.ID)

	resp, err := http.Get(f.router.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Runs []service.JobStatus `json:"runs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, j := range page.Runs {
		ids[j.ID] = true
	}
	if !ids[st.ID] || !ids[sw.ID] {
		t.Fatalf("fleet job list %v missing %s or %s", ids, st.ID, sw.ID)
	}
}
