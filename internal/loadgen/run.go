package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"occamy/internal/scenario"
	"occamy/internal/service"
)

// sweepBody wraps a marshaled spec and axes into the POST /v1/sweeps
// request format.
func sweepBody(spec []byte, axes []scenario.SweepAxis) ([]byte, error) {
	req := struct {
		Spec json.RawMessage `json:"spec"`
		Axes []string        `json:"axes"`
	}{Spec: spec}
	for _, ax := range axes {
		req.Axes = append(req.Axes, ax.Path+"="+strings.Join(ax.Values, ","))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("loadgen: marshaling sweep body: %w", err)
	}
	return body, nil
}

// jobStatus is the slice of the service's job snapshot the client
// reads (decoded leniently: the loadgen must work against newer
// servers that add fields).
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// outcome is one request's fate, recorded into the report.
type outcome struct {
	target  int           // index into Config.Targets
	latency time.Duration // submit-to-done, terminal outcomes only
	state   string        // done | failed | canceled
	cached  bool
	refused bool // 503 (capacity) or 429 (rate limit) at submission
	err     error
}

// Run executes a schedule against the configured targets and collects
// the report. It is open-loop: arrivals fire on the schedule's clock;
// completions only bound the client pool, never the arrival process.
func Run(ctx context.Context, cfg Config, sched []Request) (*Report, error) {
	cfg = cfg.WithDefaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	client := &http.Client{} // per-request deadlines via contexts

	var (
		mu       sync.Mutex
		outcomes = make([]outcome, 0, len(sched))
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, cfg.Concurrency)
	start := time.Now()
	for i := range sched {
		req := &sched[i]
		// Open-loop pacing: sleep to the scheduled arrival, then fire.
		if d := time.Until(start.Add(req.At)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The latency clock starts at the scheduled arrival the user
			// "clicked submit", including any wait for a pool slot — the
			// anti-coordinated-omission convention (cf. wrk2).
			t0 := time.Now()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := doOne(ctx, client, cfg, cfg.Targets[req.Target], req)
			o.target = req.Target
			o.latency = time.Since(t0)
			mu.Lock()
			outcomes = append(outcomes, o)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := summarize(cfg, sched, outcomes, elapsed)
	for _, target := range cfg.Targets {
		ts := TargetStats{URL: target}
		st, err := FetchStats(ctx, client, target)
		if err != nil {
			ts.Err = err.Error()
		} else {
			ts.Stats = st
		}
		rep.Targets = append(rep.Targets, ts)
	}
	return rep, nil
}

// doOne submits one request and drives it to a terminal state.
func doOne(ctx context.Context, client *http.Client, cfg Config, target string, req *Request) outcome {
	jctx, cancel := context.WithTimeout(ctx, cfg.JobTimeout)
	defer cancel()

	st, code, err := postJSON(jctx, client, target+req.Path, req.Body)
	switch {
	case err != nil:
		return outcome{err: fmt.Errorf("POST %s: %w", req.Path, err)}
	case code == http.StatusServiceUnavailable, code == http.StatusTooManyRequests:
		// Both are the server pushing back (saturated queue or per-client
		// rate limit): the request was refused, not errored — refusal-rate
		// thresholds gate on exactly this bucket.
		return outcome{refused: true}
	case code != http.StatusAccepted:
		return outcome{err: fmt.Errorf("POST %s: status %d (%s)", req.Path, code, st.Error)}
	}
	if terminal(st.State) {
		// Born terminal: a cache hit (or a coalesce onto a finished job).
		return outcome{state: st.State, cached: st.Cached}
	}
	for {
		select {
		case <-jctx.Done():
			return outcome{err: fmt.Errorf("job %s: %w", st.ID, jctx.Err())}
		case <-time.After(cfg.PollInterval):
		}
		cur, code, err := getJob(jctx, client, target, st.ID)
		if err != nil {
			return outcome{err: fmt.Errorf("poll %s: %w", st.ID, err)}
		}
		if code != http.StatusOK {
			return outcome{err: fmt.Errorf("poll %s: status %d", st.ID, code)}
		}
		if terminal(cur.State) {
			return outcome{state: cur.State, cached: cur.Cached}
		}
	}
}

func postJSON(ctx context.Context, client *http.Client, url string, body []byte) (jobStatus, int, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return jobStatus{}, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return jobStatus{}, 0, err
	}
	defer resp.Body.Close()
	var st jobStatus
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st) // error bodies may not be a jobStatus
	return st, resp.StatusCode, nil
}

func getJob(ctx context.Context, client *http.Client, target, id string) (jobStatus, int, error) {
	// Only state and cached are read: leave the trace on the server.
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/v1/runs/"+id+"?part=head", nil)
	if err != nil {
		return jobStatus{}, 0, err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return jobStatus{}, 0, err
	}
	defer resp.Body.Close()
	var st jobStatus
	err = json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&st)
	return st, resp.StatusCode, err
}

// FetchStats pulls GET /v1/stats from one target.
func FetchStats(ctx context.Context, client *http.Client, target string) (*service.Stats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var st service.Stats
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
