package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"occamy/internal/scenario"
)

// quickSpec returns a fast-running catalog spec at quick scale.
func quickSpec(t testing.TB, name string) scenario.Spec {
	t.Helper()
	sc, ok := scenario.Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return sc.SpecAt(scenario.ScaleQuick)
}

// newService builds a service with test-friendly sizing and closes it
// with the test.
func newService(t testing.TB, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// await polls a job to a terminal state.
func await(t testing.TB, s *Service, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// Resubmitting a spec after its first run completes is a cache hit:
// done immediately, cached flag set, and the result bytes are the exact
// bytes the first run produced.
func TestResubmissionIsCacheHit(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	spec := quickSpec(t, "burst-absorb")

	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission reported cached")
	}
	st := await(t, s, first.ID)
	if st.State != JobDone {
		t.Fatalf("first run ended %s (%s)", st.State, st.Error)
	}
	firstBytes, ok := s.Result(first.ID)
	if !ok || len(firstBytes) == 0 {
		t.Fatal("no result bytes on the first run")
	}

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != JobDone {
		t.Fatalf("resubmission not a cache hit: %+v", second)
	}
	if second.ID == first.ID {
		t.Fatal("resubmission reused the first job id")
	}
	secondBytes, _ := s.Result(second.ID)
	if string(firstBytes) != string(secondBytes) {
		t.Error("cached result bytes differ from the original run")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", first.Fingerprint, second.Fingerprint)
	}

	// The cache saw exactly one miss (the first submission) and at
	// least one hit.
	if cs := s.Cache().Stats(); cs.Hits < 1 || cs.Entries < 1 {
		t.Errorf("cache stats after hit: %+v", cs)
	}
}

// An equivalent spec written differently (defaults spelled out) is the
// same content address, so it hits the cache too.
func TestEquivalentSpecHitsCache(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	spec := quickSpec(t, "quickstart")
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, s, first.ID)

	explicit := spec
	explicit.Workloads = append([]scenario.Workload(nil), spec.Workloads...)
	explicit.Seed = 42 // the default, spelled out
	st, err := s.Submit(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Errorf("equivalent spec missed the cache: %+v", st)
	}
}

// Concurrent submissions (same spec and different specs interleaved)
// must be race-clean, all complete, and collapse to one simulation per
// distinct fingerprint — either via the in-flight coalescer or the
// cache.
func TestConcurrentSubmissions(t *testing.T) {
	s := newService(t, Config{Workers: 4})
	names := []string{"quickstart", "burst-absorb"}
	const perName = 8

	var wg sync.WaitGroup
	ids := make(chan string, len(names)*perName)
	for _, name := range names {
		spec := quickSpec(t, name)
		for i := 0; i < perName; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := s.Submit(spec)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- st.ID
			}()
		}
	}
	wg.Wait()
	close(ids)

	results := map[string]map[string]bool{} // scenario -> distinct result bytes
	for id := range ids {
		st := await(t, s, id)
		if st.State != JobDone {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
		data, ok := s.Result(id)
		if !ok {
			t.Fatalf("job %s has no result", id)
		}
		if results[st.Scenario] == nil {
			results[st.Scenario] = map[string]bool{}
		}
		results[st.Scenario][string(data)] = true
	}
	for name, distinct := range results {
		if len(distinct) != 1 {
			t.Errorf("%s: %d distinct result byte strings across identical submissions", name, len(distinct))
		}
	}
}

// Canceling a queued job prevents it from running; canceling a running
// job stops it at the next engine chunk. A one-worker service with a
// paper-scale job in the pipe makes both states reachable.
func TestCancel(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	slow := quickSpec(t, "incast-storm-256")
	slow.Scale = scenario.ScalePaper // long enough to still be running

	running, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(quickSpec(t, "quickstart"))
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.Cancel(queued.ID)
	if !ok {
		t.Fatal("cancel of queued job not found")
	}
	if st.State != JobCanceled {
		t.Errorf("queued job state after cancel: %s", st.State)
	}
	if st, _ := s.Cancel(running.ID); st.State.Terminal() && st.State != JobCanceled {
		t.Errorf("running job ended %s before cancel took effect", st.State)
	}
	if st := await(t, s, running.ID); st.State != JobCanceled && st.State != JobDone {
		t.Errorf("running job ended %s after cancel", st.State)
	}
	// Canceled runs must not poison the cache: a fresh submission of the
	// canceled queued spec runs for real.
	redo, err := s.Submit(quickSpec(t, "quickstart"))
	if err != nil {
		t.Fatal(err)
	}
	if redo.Cached {
		t.Error("canceled job left a cache entry")
	}
	if st := await(t, s, redo.ID); st.State != JobDone {
		t.Errorf("resubmitted job ended %s (%s)", st.State, st.Error)
	}
}

// A sweep job fans its grid through RunGrid and yields the same table
// the CLI sweep path renders; repeating it is a cache hit.
func TestSweepJob(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	spec := quickSpec(t, "burst-absorb")
	axes := []scenario.SweepAxis{{Path: "policy.kind", Values: []string{"dt", "occamy"}}}

	st, err := s.SubmitSweep(spec, axes)
	if err != nil {
		t.Fatal(err)
	}
	done := await(t, s, st.ID)
	if done.State != JobDone {
		t.Fatalf("sweep ended %s (%s)", done.State, done.Error)
	}
	data, _ := s.Result(st.ID)
	tab, err := scenario.RunSweep(spec, axes)
	if err != nil {
		t.Fatal(err)
	}
	doc := scenario.NewTableDoc(tab)
	want, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) {
		t.Errorf("sweep job table differs from CLI sweep:\n%s\nvs\n%s", data, want)
	}

	again, err := s.SubmitSweep(spec, axes)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeated sweep missed the cache")
	}
	// Bad axes are rejected at submit time, not worker time.
	if _, err := s.SubmitSweep(spec, []scenario.SweepAxis{{Path: "no.such.field", Values: []string{"1"}}}); err == nil {
		t.Error("sweep over an unknown field accepted")
	}
}

// LRU byte-budget eviction: entries over budget fall off the cold end,
// Get refreshes recency, and persisted entries survive eviction and
// process restarts.
func TestCacheEvictionAndPersistence(t *testing.T) {
	// Canonical payloads of exact size n (disk restores admit only the
	// compact, newline-terminated form Encode writes).
	val := func(n int, c byte) []byte {
		const overhead = len(`{"v":""}` + "\n")
		fill := make([]byte, n-overhead)
		for i := range fill {
			fill[i] = c
		}
		return []byte(`{"v":"` + string(fill) + `"}` + "\n")
	}
	c, err := NewCache(100, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("sha256:aa", val(40, 'a'))
	c.Put("sha256:bb", val(40, 'b'))
	if c.Get("sha256:aa") == nil { // refresh a: b is now LRU
		t.Fatal("a missing before any eviction")
	}
	c.Put("sha256:cc", val(40, 'c')) // 120 > 100: evicts b
	if c.Get("sha256:bb") != nil {
		t.Error("LRU entry b survived over-budget insert")
	}
	if c.Get("sha256:aa") == nil || c.Get("sha256:cc") == nil {
		t.Error("recently used entries evicted")
	}
	if c.Put("sha256:huge", val(101, 'h')); c.Get("sha256:huge") != nil {
		t.Error("entry larger than the whole budget admitted to memory")
	}
	st := c.Stats()
	if st.Evicted == 0 || st.Bytes > st.Budget {
		t.Errorf("stats after eviction: %+v", st)
	}

	// Disk persistence: a new cache over the same directory restores on
	// miss, and evicted entries come back from disk.
	dir := t.TempDir()
	p1, err := NewCache(100, dir)
	if err != nil {
		t.Fatal(err)
	}
	p1.Put("sha256:0a1b", val(60, 'x'))
	p1.Put("sha256:2c3d", val(60, 'y')) // evicts 0a1b from memory
	if got := p1.Get("sha256:0a1b"); string(got) != string(val(60, 'x')) {
		t.Error("evicted entry not restored from disk")
	}
	p2, err := NewCache(100, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Get("sha256:2c3d"); string(got) != string(val(60, 'y')) {
		t.Error("fresh cache did not restore a persisted entry")
	}
	if p2.Stats().Restored == 0 {
		t.Error("restore counter did not move")
	}
	log := filepath.Join(dir, "results.log")
	if file, err := os.ReadFile(log); err != nil || !bytes.Contains(file, []byte("sha256:0a1b 60\n"+string(val(60, 'x')))) {
		t.Errorf("persisted record missing from the log: %v", err)
	}
	// A torn append (a crash mid-write) is a miss, not a served result,
	// and is cut from the log when a cache next opens it.
	whole := p2.Stats().LogBytes
	f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("sha256:dead 60\n" + `{"schema":1,"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	p3, err := NewCache(100, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := p3.Get("sha256:dead"); got != nil {
		t.Errorf("torn persisted record served: %q", got)
	}
	if fi, err := os.Stat(log); err != nil || fi.Size() != whole || p3.Stats().LogBytes != whole {
		t.Errorf("torn record not cut from the log: %v, want %d bytes", fi, whole)
	}
}

// A valid result document filed under another key's header (bytes
// another writer put where the key's record was) is some other spec's
// answer: it is a miss, the record is forgotten, and the key works
// normally afterwards.
func TestCacheRejectsMisplacedDocument(t *testing.T) {
	dir := t.TempDir()
	doc := func(fp string) []byte {
		return []byte(`{"schema":1,"name":"quickstart","fingerprint":"` + fp + `","events":7}` + "\n")
	}
	const own, other = "sha256:0123", "sha256:4567"
	first, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	first.Put(own, doc(own))
	first.Put(other, doc(other))
	first.Close()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(own, doc(own))
	// Overwrite other's record (the log's second) with own's.
	log := filepath.Join(dir, "results.log")
	file, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	rec := len(file) / 3
	copy(file[rec:2*rec], file[:rec])
	if err := os.WriteFile(log, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := c.Get(other); got != nil {
		t.Fatalf("document of %s served under %s: %q", own, other, got)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.Restored != 0 || st.Entries != 1 || st.Persisted != 1 {
		t.Errorf("stats after rejecting a misplaced record: %+v", st)
	}
	// The right bytes under the key are stored, served, and restored by
	// a cache that starts over the same directory.
	c.Put(other, doc(other))
	if got := c.Get(other); string(got) != string(doc(other)) {
		t.Errorf("Get after Put = %q", got)
	}
	fresh, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Get(other); string(got) != string(doc(other)) {
		t.Errorf("restored %q, want the document that was Put", got)
	}
}

// Persistence does not depend on the document's schema: a sweep table,
// which embeds no fingerprint, survives a restart and memory eviction
// like a run result does.
func TestCachePersistsSweepTable(t *testing.T) {
	table, err := (&scenario.TableDoc{
		ID: "sweep", Title: "drops by alpha", Columns: []string{"alpha", "drops"},
		Rows: [][]string{{"1", "12"}, {"2", "7"}},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := NewCache(int64(len(table))-1, dir) // too big for memory: disk only
	if err != nil {
		t.Fatal(err)
	}
	const key = "sha256:5eeb"
	c.Put(key, table)
	if got := c.Get(key); string(got) != string(table) {
		t.Errorf("over-budget table from disk = %q, want %q", got, table)
	}
	fresh, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Get(key); string(got) != string(table) {
		t.Errorf("table after restart = %q, want %q", got, table)
	}
	if st := fresh.Stats(); st.Restored != 1 {
		t.Errorf("restored = %d, want 1", st.Restored)
	}
}

// A running sweep is cancelable too: the flag reaches every grid
// point's engine loop, the job ends canceled, and nothing is cached.
func TestSweepCancel(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	spec := quickSpec(t, "incast-storm-256")
	spec.Scale = scenario.ScalePaper
	axes := []scenario.SweepAxis{{Path: "policy.kind", Values: []string{"dt", "occamy"}}}
	st, err := s.SubmitSweep(spec, axes)
	if err != nil {
		t.Fatal(err)
	}
	// Let it leave the queue so the cancel exercises the running path.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cur, _ := s.Get(st.ID); cur.State != JobQueued {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := s.Cancel(st.ID); !ok {
		t.Fatal("cancel not found")
	}
	if done := await(t, s, st.ID); done.State != JobCanceled {
		t.Fatalf("sweep ended %s, want canceled", done.State)
	}
	if again, err := s.SubmitSweep(spec, axes); err != nil {
		t.Fatal(err)
	} else if again.Cached {
		t.Error("canceled sweep left a cache entry")
	}
}

// A service with a persistence directory keeps its memoized results
// across restarts: the "second server" answers a spec it never ran.
func TestServicePersistenceAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec(t, "quickstart")

	s1 := newService(t, Config{Workers: 1, CacheDir: dir})
	first, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := await(t, s1, first.ID); st.State != JobDone {
		t.Fatalf("first run ended %s", st.State)
	}
	firstBytes, _ := s1.Result(first.ID)
	s1.Close()

	s2 := newService(t, Config{Workers: 1, CacheDir: dir})
	st, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatal("restarted service missed its persisted cache")
	}
	data, _ := s2.Result(st.ID)
	if string(data) != string(firstBytes) {
		t.Error("persisted result bytes drifted across restart")
	}
}

// The queue refuses beyond its depth instead of blocking Submit.
func TestQueueDepthBounds(t *testing.T) {
	s := newService(t, Config{Workers: 1, QueueDepth: 2})
	slow := quickSpec(t, "incast-storm-256")
	slow.Scale = scenario.ScalePaper
	if _, err := s.Submit(slow); err != nil {
		t.Fatal(err)
	}
	// Distinct fingerprints (different seeds) so nothing coalesces.
	var sawRefusal bool
	for i := 0; i < 8; i++ {
		sp := quickSpec(t, "quickstart")
		sp.Seed = uint64(100 + i)
		if _, err := s.Submit(sp); err != nil {
			sawRefusal = true
			break
		}
	}
	if !sawRefusal {
		t.Error("queue accepted unboundedly past its depth")
	}
}

// Deterministic per-job seeds: the executed spec pins its seed, so the
// same submission yields byte-identical results no matter how many
// workers race over the queue.
func TestWorkerCountInvariance(t *testing.T) {
	spec := quickSpec(t, "burst-absorb")
	run := func(workers int) string {
		s := newService(t, Config{Workers: workers})
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if done := await(t, s, st.ID); done.State != JobDone {
			t.Fatalf("run ended %s", done.State)
		}
		data, _ := s.Result(st.ID)
		return string(data)
	}
	if a, b := run(1), run(4); a != b {
		t.Error("result bytes depend on the worker-pool size")
	}
}

// The job ledger is bounded: past MaxJobs the oldest terminal jobs are
// pruned (their ids expire; the cached results stay servable), so a
// long-running server's memory doesn't grow with request count.
func TestJobLedgerBounded(t *testing.T) {
	s := newService(t, Config{Workers: 2, MaxJobs: 5})
	spec := quickSpec(t, "quickstart")
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, s, first.ID)
	// 20 cache hits would be 21 ledger entries unbounded.
	var last JobStatus
	for i := 0; i < 20; i++ {
		if last, err = s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Jobs()); got > 5 {
		t.Errorf("ledger holds %d jobs, bound is 5", got)
	}
	// The newest job survives; the first one expired.
	if _, ok := s.Get(last.ID); !ok {
		t.Error("newest job was pruned")
	}
	if _, ok := s.Get(first.ID); ok {
		t.Error("oldest terminal job survived past the bound")
	}
	// Expired ids don't break resubmission: still an O(1) hit.
	if st, err := s.Submit(spec); err != nil || !st.Cached {
		t.Errorf("resubmission after pruning: %+v %v", st, err)
	}
}

// A cancel-flagged in-flight job must not swallow new submissions of
// the same spec: the coalescer skips doomed jobs and enqueues a fresh
// run. Both windows are covered — a canceled queued job (terminal
// immediately, gone from the coalescer) and a running job whose cancel
// flag is set but which hasn't reached its next chunk boundary yet.
func TestSubmitSkipsCancelFlaggedInflight(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	// A long-running job holds the only worker.
	blocker := quickSpec(t, "incast-storm-256")
	blocker.Scale = scenario.ScalePaper
	running, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}

	// Window 1: a queued job, canceled, then resubmitted.
	spec := quickSpec(t, "quickstart")
	victim, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Cancel(victim.ID); st.State != JobCanceled {
		t.Fatalf("queued victim not canceled: %s", st.State)
	}
	redo, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if redo.ID == victim.ID {
		t.Fatal("submission coalesced onto a canceled queued job")
	}

	// Window 2: the running blocker, cancel-flagged but likely still
	// mid-chunk; an identical submission must get a fresh job either
	// way, never the doomed one.
	if _, ok := s.Cancel(running.ID); !ok {
		t.Fatal("cancel of running job not found")
	}
	again, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == running.ID {
		t.Fatal("submission coalesced onto a cancel-flagged running job")
	}
	if again.Cached {
		t.Fatal("canceled run left a cache entry")
	}
	if st := await(t, s, redo.ID); st.State != JobDone {
		t.Errorf("fresh submission ended %s (%s)", st.State, st.Error)
	}
	// The replacement blocker job is still pending/running at paper
	// scale; Close cancels it on cleanup.
}

// Listing is stable and complete: every submission appears, in order.
func TestJobsListing(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	var want []string
	for i := 0; i < 3; i++ {
		sp := quickSpec(t, "quickstart")
		sp.Seed = uint64(1000 + i)
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st.ID)
	}
	got := s.Jobs()
	if len(got) != len(want) {
		t.Fatalf("listing has %d jobs, want %d", len(got), len(want))
	}
	for i, st := range got {
		if st.ID != want[i] {
			t.Errorf("listing[%d] = %s, want %s", i, st.ID, want[i])
		}
	}
	for _, id := range want {
		await(t, s, id)
	}
}

func BenchmarkSubmitCacheHit(b *testing.B) {
	s := newService(b, Config{Workers: 1})
	spec := quickSpec(b, "quickstart")
	st, err := s.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	await(b, s, st.ID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st, err := s.Submit(spec); err != nil || !st.Cached {
			b.Fatalf("miss on iteration %d: %+v %v", i, st, err)
		}
	}
}

// Close must resolve every job — running ones bail at their next engine
// chunk, queued ones are skipped — so a graceful server shutdown never
// orphans a job in the ledger.
func TestCloseResolvesAllJobs(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow := quickSpec(t, "incast-storm-256")
	slow.Scale = scenario.ScalePaper // long enough to still be running
	ids := []string{}
	st, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, st.ID)
	// Distinct seeds: several genuinely queued jobs behind the slow one.
	for i := 0; i < 5; i++ {
		sp := quickSpec(t, "quickstart")
		sp.Seed = uint64(200 + i)
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	s.Close() // blocks until the workers have drained the queue

	for _, id := range ids {
		st, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s orphaned by Close", id)
		}
		if !st.State.Terminal() {
			t.Errorf("job %s left %s after Close, want terminal", id, st.State)
		}
	}
	if _, err := s.Submit(quickSpec(t, "quickstart")); err == nil {
		t.Error("submission accepted after Close")
	}
}

// The sweep-point cap refuses oversize grids before expanding anything.
func TestSweepPointCap(t *testing.T) {
	s := newService(t, Config{Workers: 1, MaxSweepPoints: 4})
	spec := quickSpec(t, "burst-absorb")

	ok := []scenario.SweepAxis{{Path: "policy.kind", Values: []string{"dt", "occamy"}}}
	st, err := s.SubmitSweep(spec, ok)
	if err != nil {
		t.Fatalf("2-point grid refused under cap 4: %v", err)
	}
	await(t, s, st.ID)

	over := []scenario.SweepAxis{
		{Path: "policy.kind", Values: []string{"dt", "occamy"}},
		{Path: "seed", Values: []string{"1", "2", "3"}},
	}
	if _, err := s.SubmitSweep(spec, over); !errors.Is(err, ErrSweepTooLarge) {
		t.Fatalf("6-point grid under cap 4: err = %v, want ErrSweepTooLarge", err)
	}

	// The guard must also survive products that overflow int: three
	// large axes multiply to far past 1<<63.
	big := make([]string, 100000)
	for i := range big {
		big[i] = "1"
	}
	bomb := []scenario.SweepAxis{
		{Path: "seed", Values: big},
		{Path: "seed", Values: big},
		{Path: "seed", Values: big},
	}
	if _, err := s.SubmitSweep(spec, bomb); !errors.Is(err, ErrSweepTooLarge) {
		t.Fatalf("sweep bomb: err = %v, want ErrSweepTooLarge", err)
	}
}

// Stats counters obey the ledger identities at every instant, and the
// gauges drain to zero once the work does.
func TestStatsLedgerConsistency(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 12; i++ {
		sp := quickSpec(t, "quickstart")
		sp.Seed = uint64(1 + i%4) // repeats: some hits/coalesces
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		await(t, s, id)
	}
	st := s.Stats()
	c := st.Counters
	if c.Submitted != 12 {
		t.Fatalf("submitted = %d, want 12", c.Submitted)
	}
	if got := c.CacheHits + c.Coalesced + c.Enqueued + c.Refused; got != c.Submitted {
		t.Fatalf("submission identity broken: %+v", c)
	}
	if got := c.Done + c.Failed + c.Canceled + int64(st.Queued) + int64(st.Running); got != c.Enqueued {
		t.Fatalf("state identity broken: %+v (queued %d running %d)", c, st.Queued, st.Running)
	}
	if c.CacheHits+c.Coalesced == 0 {
		t.Fatal("4 distinct seeds over 12 submissions produced no hits or coalesces")
	}
}

// Figure ≡ worker: every paper figure is a grid of specs over
// scenario.Run, so one of its points submitted as a job returns a
// ResultDoc whose summary cells are the figure's own row — and
// resubmitting it is a cache hit.
func TestFigurePointsAreJobs(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	d, f, _ := scenario.FigureScales(scenario.ScaleQuick)
	d.Queries, d.SizeFracs = 3, []float64{0.6}
	f.Queries, f.SizeFracs = 2, []float64{0.4}
	for _, c := range []struct {
		fig scenario.Figure
		// cols maps a figure column to the summary column holding the
		// same cell.
		cols map[string]string
	}{
		{scenario.Fig13SoftwareSwitch(d), map[string]string{
			"avg_qct_ms": "qct_avg_ms", "p99_qct_ms": "qct_p99_ms", "bg_avg_fct_ms": "bg_avg_fct_ms"}},
		{scenario.Fig17LargeScale(f), map[string]string{
			"qct_avg_slow": "qct_avg_slow", "qct_p99_slow": "qct_p99_slow",
			"bg_avg_slow": "bg_avg_slow", "small_bg_p99_slow": "small_bg_p99_slow"}},
	} {
		table := c.fig.Run()[0]
		spec := c.fig.Specs[0] // one spec per row in these figures: point 0 is row 0
		first, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := await(t, s, first.ID); st.State != JobDone {
			t.Fatalf("%s point ended %s (%s)", table.ID, st.State, st.Error)
		}
		data, _ := s.Result(first.ID)
		doc, err := scenario.DecodeResultDoc(data)
		if err != nil {
			t.Fatal(err)
		}
		for figCol, sumCol := range c.cols {
			i, j := slices.Index(table.Columns, figCol), slices.Index(doc.Summary.Columns, sumCol)
			if i < 0 || j < 0 {
				t.Fatalf("%s: column %s/%s missing (figure %v, summary %v)", table.ID, figCol, sumCol, table.Columns, doc.Summary.Columns)
			}
			if got, want := doc.Summary.Rows[0][j], table.Rows[0][i]; got != want {
				t.Errorf("%s %s: worker says %s, figure says %s", table.ID, figCol, got, want)
			}
		}
		second, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !second.Cached || second.State != JobDone {
			t.Errorf("%s point resubmission not a cache hit: %+v", table.ID, second)
		}
	}
}
