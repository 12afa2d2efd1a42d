package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"occamy/internal/scenario"
	"occamy/internal/sim"
)

// encodeView is the encoder WriteJobView replaced, kept as its oracle.
func encodeView(t *testing.T, view JobView) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(view); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkJobViewWriter holds WriteJobView to the reflective encoder: the
// default body is Encode(view) byte for byte, ?part=head's is
// Encode(view with head as its result), and Content-Length is the
// body's length both times.
func checkJobViewWriter(t *testing.T, view JobView, head []byte) {
	t.Helper()
	headView := view
	headView.Result = head
	for _, c := range []struct {
		query string
		want  []byte
	}{{"", encodeView(t, view)}, {"?part=head", encodeView(t, headView)}} {
		rec := httptest.NewRecorder()
		WriteJobView(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+view.ID+c.query, nil), view)
		got := rec.Body.Bytes()
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s %s%s: status %d, content type %q", view.State, view.ID, c.query, rec.Code, rec.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got, c.want) {
			i := 0
			for i < len(got) && i < len(c.want) && got[i] == c.want[i] {
				i++
			}
			t.Fatalf("%s %s%s: body differs from json.Encoder at byte %d (%d vs %d bytes):\n got …%.120s\nwant …%.120s",
				view.State, view.ID, c.query, i, len(got), len(c.want), got[max(0, i-40):], c.want[max(0, i-40):])
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(c.want)) {
			t.Fatalf("%s %s%s: Content-Length %q for a %d-byte body", view.State, view.ID, c.query, cl, len(c.want))
		}
	}
}

// jobDocument is what a router may assume of every job document it
// relays: it opens with the id, and the id is letters then digits —
// nothing that needs escaping, nothing before it.
var jobDocument = regexp.MustCompile(`^\{"id":"[a-z]+[0-9]+",`)

// The writer differential over every lifecycle state the ledger can
// show, each reached through the ledger's own transitions, plus a sweep
// table and every exportable catalog document at quick scale.
func TestJobViewWriterMatchesEncoder(t *testing.T) {
	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	var last *Job
	l := NewLedger("r", 64, cache, slog.New(slog.DiscardHandler), func(j *Job, _ []scenario.Spec) error {
		last = j
		return nil
	})
	base := quickSpec(t, "quickstart")
	base.Title = `a <b> & "c"` // what the envelope and the document must both escape
	submit := func(seed uint64) *Job {
		spec := base
		spec.Seed = seed
		if _, err := l.Submit("run", Request{Spec: spec}, "trace-7"); err != nil {
			t.Fatal(err)
		}
		return last
	}
	report := func(j *Job) {
		j.runProgressFunc()(scenario.RunProgress{SimNow: sim.Time(3 * sim.Millisecond), SimHorizon: 10 * sim.Millisecond, Events: 4711})
	}
	res, err := scenario.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	full, err := res.EncodeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := res.EncodeJSON(false)
	if err != nil {
		t.Fatal(err)
	}

	queued := submit(1)
	running := submit(2)
	l.Start(running)
	report(running)
	failed := submit(3)
	l.Start(failed)
	l.Finish(failed, nil, errors.New(`boom: <tag> & "quotes"`))
	canceled := submit(4)
	l.Cancel(canceled.ID)
	done := submit(0)
	l.Start(done)
	report(done)
	l.Finish(done, full, nil)
	hit, err := l.Submit("run", Request{Spec: base}, "")
	if err != nil || !hit.Cached {
		t.Fatalf("resubmission: %+v, %v", hit, err)
	}
	traceless := submit(5)
	l.Start(traceless)
	l.Finish(traceless, bare, nil)

	axes := []scenario.SweepAxis{{Path: "policy.kind", Values: []string{"dt", "occamy"}}}
	req, err := ExpandSweep(base, axes, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Submit("sweep", req, "trace-8"); err != nil {
		t.Fatal(err)
	}
	sweep := last
	l.Start(sweep)
	sweep.SweepProgressFunc()()
	table, err := (&scenario.TableDoc{ID: "sweep", Title: "t <&>", Columns: []string{"x"}, Rows: [][]string{{"1"}}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	l.Finish(sweep, table, nil)

	for _, c := range []struct {
		id    string
		state JobState
		head  []byte // the ?part=head result
	}{
		{queued.ID, JobQueued, nil}, {running.ID, JobRunning, nil}, {failed.ID, JobFailed, nil},
		{canceled.ID, JobCanceled, nil}, {done.ID, JobDone, bare}, {hit.ID, JobDone, bare},
		{traceless.ID, JobDone, bare}, {sweep.ID, JobDone, table},
	} {
		view, ok := l.View(c.id)
		if !ok || view.State != c.state {
			t.Fatalf("job %s: state %s (found %v), want %s", c.id, view.State, ok, c.state)
		}
		if c.state == JobRunning && view.Progress == nil {
			t.Fatal("the running job shows no progress")
		}
		checkJobViewWriter(t, view, c.head)
		env, err := json.Marshal(view.JobStatus)
		if err != nil || !jobDocument.Match(env) {
			t.Errorf("job %s: a status must open with a plain id for the router to relay it, got %.60s (err %v)", c.id, env, err)
		}
	}
	// The router's own ledger issues g<seq>.
	g := NewLedger("g", 4, cache, slog.New(slog.DiscardHandler), func(*Job, []scenario.Spec) error { return nil })
	st, err := g.Submit("sweep", req, "")
	if env, _ := json.Marshal(st); err != nil || !jobDocument.Match(env) {
		t.Errorf("router sweep status opens %.60s (err %v)", env, err)
	}

	doneView, _ := l.View(done.ID)
	for _, name := range scenario.Names() {
		sc, _ := scenario.Get(name)
		if sc.Tables != nil {
			continue
		}
		res, err := scenario.Run(sc.SpecAt(scenario.ScaleQuick))
		if err != nil {
			t.Fatal(err)
		}
		view := doneView
		view.Scenario = name
		if view.Result, err = res.EncodeJSON(true); err != nil {
			t.Fatal(err)
		}
		head, err := res.EncodeJSON(false)
		if err != nil {
			t.Fatal(err)
		}
		checkJobViewWriter(t, view, head)
	}
}

// get fetches a URL and returns status, headers and body.
func get(t *testing.T, url string) (*http.Response, []byte) {
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
	return resp, body
}

// ?part= over real HTTP: the default GET carries the whole document
// under a Content-Length, head is the same view with the traceless
// encoding as its result, a sweep table has no parts and is whole
// either way, and an unknown part is a 400 on either kind of job.
func TestHTTPJobViewParts(t *testing.T) {
	_, srv := startServer(t, Config{Workers: 2})
	spec := quickSpec(t, "quickstart")
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := res.EncodeJSON(true)
	bare, _ := res.EncodeJSON(false)

	var run, sweep JobStatus
	if code := post(t, srv.URL+"/v1/runs?name=quickstart&scale=quick", "", &run); code != http.StatusAccepted {
		t.Fatalf("run POST: %d", code)
	}
	if code := post(t, srv.URL+"/v1/sweeps", `{"name":"quickstart","scale":"quick","axes":["policy.kind=dt,occamy"]}`, &sweep); code != http.StatusAccepted {
		t.Fatalf("sweep POST: %d", code)
	}
	awaitHTTP(t, srv.URL, run.ID)
	table := awaitHTTP(t, srv.URL, sweep.ID).Result

	result := func(body []byte) string {
		var v struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%v in %.200s", err, body)
		}
		return string(v.Result) + "\n"
	}
	for _, c := range []struct {
		path string
		want string
	}{
		{run.ID, string(full)}, {run.ID + "?part=head", string(bare)}, {run.ID + "?part=head&part=bogus", string(bare)},
		{sweep.ID, string(table) + "\n"}, {sweep.ID + "?part=head", string(table) + "\n"},
	} {
		resp, body := get(t, srv.URL+"/v1/runs/"+c.path)
		if resp.StatusCode != http.StatusOK || result(body) != c.want {
			t.Errorf("GET %s: status %d, result of %d bytes, want %d", c.path, resp.StatusCode, len(result(body)), len(c.want))
		}
		if resp.ContentLength != int64(len(body)) || !bytes.HasSuffix(body, []byte("}\n")) {
			t.Errorf("GET %s: Content-Length %d for %d bytes ending %q", c.path, resp.ContentLength, len(body), body[len(body)-2:])
		}
	}
	for _, id := range []string{run.ID, sweep.ID} {
		for _, q := range []string{"?part=bogus", "?part=trace", "?part=HEAD", "?part=head%26x"} {
			resp, body := get(t, srv.URL+"/v1/runs/"+id+q)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"error":"unknown part`) {
				t.Errorf("GET %s%s: status %d body %.100s, want a 400 naming the part", id, q, resp.StatusCode, body)
			}
		}
	}
}

// trace.csv decodes the stored document's trace section per request and
// keeps nothing: its bytes are what the whole decoded document renders,
// at every stride, and the jobs it cannot serve are 404s before any CSV.
func TestHTTPTraceCSVFromStoredBytes(t *testing.T) {
	s, srv := startServer(t, Config{Workers: 2})
	var run, sweep JobStatus
	if code := post(t, srv.URL+"/v1/runs?name=quickstart&scale=quick", "", &run); code != http.StatusAccepted {
		t.Fatalf("run POST: %d", code)
	}
	if code := post(t, srv.URL+"/v1/sweeps", `{"name":"quickstart","scale":"quick","axes":["seed=1"]}`, &sweep); code != http.StatusAccepted {
		t.Fatalf("sweep POST: %d", code)
	}
	awaitHTTP(t, srv.URL, run.ID)
	awaitHTTP(t, srv.URL, sweep.ID)
	data, _ := s.Result(run.ID)
	doc, err := scenario.DecodeResultDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, stride := range []int{1, 8} {
		var want bytes.Buffer
		if err := doc.Trace.WriteCSV(&want, stride); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the second request decodes again, to the same bytes
			resp, body := get(t, srv.URL+"/v1/runs/"+run.ID+"/trace.csv?stride="+strconv.Itoa(stride))
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/csv" || !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("trace.csv stride %d: status %d, %d bytes, want %d", stride, resp.StatusCode, len(body), want.Len())
			}
		}
	}
	for path, want := range map[string]string{
		sweep.ID: "service: job " + sweep.ID + " is a sweep, not a run",
		"r999":   "service: no job r999",
	} {
		resp, body := get(t, srv.URL+"/v1/runs/"+path+"/trace.csv")
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), want) {
			t.Errorf("trace.csv of %s: status %d body %.120s, want 404 %q", path, resp.StatusCode, body, want)
		}
	}
}

// A restored record is admitted only in the form Encode writes — the
// one form a GET may splice into a job view unexamined. Anything else
// under the right header is as damaged as a truncated record:
// forgotten, a miss, recomputed, and never counted as restored.
func TestCacheRestoreAdmitsOnlyCanonical(t *testing.T) {
	spec := quickSpec(t, "quickstart")
	spec.Title = "burst <absorbed> & drained"
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := res.EncodeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	unescaped := bytes.ReplaceAll(doc, []byte(`\u003c`), []byte("<"))
	if bytes.Equal(unescaped, doc) {
		t.Fatal("precondition: the title's < should be written \\u003c")
	}
	body := doc[:len(doc)-1]
	variants := map[string][]byte{
		"indented":         indented.Bytes(),
		"trailing space":   append(append([]byte{}, body...), " \n"...),
		"leading space":    append([]byte(" "), doc...),
		"missing newline":  body,
		"second newline":   append(append([]byte{}, doc...), '\n'),
		"unescaped <":      unescaped,
		"truncated":        doc[:len(doc)/2],
		"two documents":    append(append([]byte{}, doc...), doc...),
		"empty":            nil,
		"just the newline": []byte("\n"),
	}
	for name, variant := range variants {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "results.log"), append([]byte(header(key, int64(len(variant)))), variant...), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := NewCache(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Persisted != 1 {
			t.Fatalf("%s: the record was not indexed: %+v", name, st)
		}
		if got := c.Get(key); got != nil {
			t.Errorf("%s: a non-canonical record was served (%d bytes)", name, len(got))
		}
		if st := c.Stats(); st.Persisted != 0 {
			t.Errorf("%s: the rejected record was not forgotten", name)
		}
		if st := c.Stats(); st.Restored != 0 || st.Misses != 1 || st.Hits != 0 || st.Entries != 0 {
			t.Errorf("%s: stats after the rejection: %+v", name, st)
		}
	}

	// The canonical bytes under the same header are restored; and a
	// service that starts over a tampered file recomputes them.
	dir := t.TempDir()
	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key, doc)
	fresh, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Get(key); !bytes.Equal(got, doc) || fresh.Stats().Restored != 1 {
		t.Fatalf("canonical record not restored: %d bytes, stats %+v", len(got), fresh.Stats())
	}
	c.Close()
	fresh.Close()
	// A later record for the key wins, as a later file replaced an
	// earlier one.
	log, err := os.OpenFile(filepath.Join(dir, "results.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.WriteString(header(key, int64(indented.Len())) + indented.String()); err != nil {
		t.Fatal(err)
	}
	log.Close()
	s := newService(t, Config{Workers: 1, CacheDir: dir})
	st, err := s.Submit(spec)
	if err != nil || st.Cached {
		t.Fatalf("submission over a tampered cache record: %+v, %v (want a fresh run)", st, err)
	}
	if end := await(t, s, st.ID); end.State != JobDone {
		t.Fatalf("recomputation ended %s: %s", end.State, end.Error)
	}
	if got, _ := s.Result(st.ID); !bytes.Equal(got, doc) {
		t.Error("the recomputed result differs from the canonical document")
	}
}
