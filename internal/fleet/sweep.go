package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"occamy/internal/scenario"
	"occamy/internal/service"
)

// handleSweep expands the grid router-side (service.ReadSweep — the
// worker's own reader and grid cap) and submits it to the sweep ledger,
// whose executor fans the points out to their home shards; the
// aggregate table is byte-identical to what a single worker would have
// produced for the same sweep (a contract pinned by
// TestFleetSweepByteIdentity). A sweep already aggregating is joined
// instead of fanned out again, and a finished one is served from the
// aggregated-table cache (the worker-side caches would absorb the
// repeat points, but the router shouldn't even ask).
func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !rt.admit(w, r, 1) {
		return
	}
	req, status, err := service.ReadSweep(r, rt.maxSweep)
	if err != nil {
		service.HTTPError(w, status, "%v", err)
		return
	}
	rt.jobs.Accept(w, r, "sweep", req)
}

// startSweep is the sweep ledger's executor hook: the aggregation runs
// on its own goroutine, owned by the router, until every point has
// landed, failed or timed out.
func (rt *Router) startSweep(j *service.Job, points []scenario.Spec) error {
	go rt.runSweep(j, points)
	return nil
}

// ErrPointTimeout fails a sweep whose grid point did not produce a
// result within Config.PointTimeout — a hung or overloaded shard.
var ErrPointTimeout = errors.New("fleet: sweep point timed out")

// runSweep is the aggregator: every point runs on its fingerprint's
// home shard (concurrently — each shard's own queue provides the
// backpressure), and the finished tables re-assemble into the exact
// rows and bytes a single-process sweep would emit.
func (rt *Router) runSweep(j *service.Job, points []scenario.Spec) {
	if !rt.jobs.Start(j) {
		return
	}
	rt.count(func(c *Counters) { c.SweepPoints += int64(len(points)) })

	tables := make([]scenario.TableDoc, len(points))
	errs := make([]error, len(points))
	pointDone := j.SweepProgressFunc()
	var wg sync.WaitGroup
	for i, ps := range points {
		wg.Add(1)
		go func(i int, ps scenario.Spec) {
			defer wg.Done()
			tables[i], errs[i] = rt.runPoint(j, i, ps)
			if errs[i] == nil {
				pointDone()
			}
		}(i, ps)
	}
	wg.Wait()

	// A real failure outranks a cancel; a cancel outranks success even
	// when every point landed before the flag was seen.
	var failure error
	for _, err := range errs {
		if err != nil && !errors.Is(err, scenario.ErrCanceled) {
			failure = err
			break
		}
	}
	if failure == nil && j.Canceled() {
		failure = scenario.ErrCanceled
	}
	var data []byte
	if failure == nil {
		var table scenario.TableDoc
		if table, failure = scenario.AssembleSweepTable(j.Spec, j.Axes, tables); failure == nil {
			data, failure = table.Encode()
		}
	}
	rt.jobs.Finish(j, data, failure)
}

// runPoint submits one grid point to its home shard and polls it to a
// terminal state, returning the point's summary table. Every request it
// makes — submission and polls alike — carries the sweep trace's ".N"
// child ID, so the worker-side job for grid point N greps back to the
// router sweep that spawned it. The whole exchange runs under one
// PointTimeout deadline, so a shard that accepts and never answers
// fails the point with ErrPointTimeout instead of pinning the sweep.
func (rt *Router) runPoint(j *service.Job, idx int, spec scenario.Spec) (scenario.TableDoc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.pointWait)
	defer cancel()
	table, err := rt.pollPoint(ctx, j, idx, spec)
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("point %q: %w (no result within %s): %v", spec.Name, ErrPointTimeout, rt.pointWait, err)
	}
	return table, err
}

// pollPoint is runPoint's exchange with the shard, bounded by ctx.
func (rt *Router) pollPoint(ctx context.Context, j *service.Job, idx int, spec scenario.Spec) (scenario.TableDoc, error) {
	trace := service.ChildTrace(j.Trace, "", idx)
	fp, err := spec.Fingerprint()
	if err != nil {
		return scenario.TableDoc{}, err
	}
	shard := rt.ring.Lookup(fp)
	st, err := rt.submitPoint(ctx, j, shard, spec, trace)
	if err != nil {
		return scenario.TableDoc{}, err
	}
	for {
		if j.Canceled() {
			return scenario.TableDoc{}, scenario.ErrCanceled
		}
		// Only the summary row participates in the aggregate, so ask for
		// the head: the full document, trace and all, stays on (and is
		// served by) its home shard.
		resp, err := rt.callWorker(ctx, shard, http.MethodGet, "/v1/runs/"+st.ID+"?part=head", nil, trace)
		if err != nil {
			return scenario.TableDoc{}, err
		}
		if resp.status != http.StatusOK {
			return scenario.TableDoc{}, fmt.Errorf("worker %d: polling %s: status %d", shard, st.ID, resp.status)
		}
		var view struct {
			service.JobStatus
			Result struct {
				Summary scenario.TableDoc `json:"summary"`
			} `json:"result"`
		}
		if err := json.Unmarshal(resp.body, &view); err != nil {
			return scenario.TableDoc{}, fmt.Errorf("worker %d: undecodable job view: %v", shard, err)
		}
		if view.State.Terminal() {
			if view.State != service.JobDone {
				if view.Error != "" {
					return scenario.TableDoc{}, fmt.Errorf("point %q on worker %d: %s", spec.Name, shard, view.Error)
				}
				return scenario.TableDoc{}, fmt.Errorf("point %q on worker %d ended %s", spec.Name, shard, view.State)
			}
			return view.Result.Summary, nil
		}
		// The next poll fails on ctx once the deadline has passed.
		time.Sleep(rt.pollEvery)
	}
}

// submitPoint POSTs one point spec to its shard, absorbing transient
// 503s (queue briefly full, instance draining) with a short bounded
// backoff that honors Retry-After. A transport error means the shard is
// down — the sweep fails rather than silently re-homing the point,
// because a re-homed point would dodge the shard's cache and violate
// the "equal specs, equal home" invariant.
func (rt *Router) submitPoint(ctx context.Context, j *service.Job, shard int, spec scenario.Spec, trace string) (service.JobStatus, error) {
	body, err := spec.Marshal()
	if err != nil {
		return service.JobStatus{}, err
	}
	const attempts = 4
	for attempt := 1; ; attempt++ {
		if j.Canceled() {
			return service.JobStatus{}, scenario.ErrCanceled
		}
		resp, err := rt.callWorker(ctx, shard, http.MethodPost, "/v1/runs", body, trace)
		if err != nil {
			return service.JobStatus{}, err
		}
		switch {
		case resp.status == http.StatusAccepted:
			var st service.JobStatus
			if err := json.Unmarshal(resp.body, &st); err != nil {
				return service.JobStatus{}, fmt.Errorf("worker %d: undecodable job status: %v", shard, err)
			}
			return st, nil
		case resp.status == http.StatusServiceUnavailable && attempt < attempts:
			wait := 50 * time.Millisecond * time.Duration(attempt)
			if ra := resp.header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			if wait > time.Second {
				wait = time.Second
			}
			time.Sleep(wait)
		default:
			return service.JobStatus{}, fmt.Errorf("point %q on worker %d: status %d: %s",
				spec.Name, shard, resp.status, string(resp.body))
		}
	}
}
