package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"occamy/internal/scenario"
)

// ErrClosed refuses submissions to a closed or draining service. HTTP
// maps it to 503 with a Retry-After header — the client should come
// back once a replacement instance is up — unlike ErrQueueFull's plain
// 503 (same process, just saturated right now).
var ErrClosed = errors.New("service: shutting down")

// DefaultMaxJobs is the default ledger bound (Config.MaxJobs); the
// fleet router's sweep ledger uses it as a constant.
const DefaultMaxJobs = 4096

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: Submit registers (queued), the tier's executor picks
// it up (running), and it ends done, failed, or canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Request is one validated submission: a spec and, for a sweep, its
// axes and the expanded grid (ExpandSweep builds those).
type Request struct {
	Spec   scenario.Spec
	Axes   []scenario.SweepAxis
	Points []scenario.Spec
}

// Job is one asynchronous unit of work: a single scenario run or a
// sweep grid. The exported fields are fixed at submission; the rest is
// guarded by the owning Ledger's mutex — use the Status snapshot
// outside it.
type Job struct {
	ID          string
	Kind        string // "run" | "sweep"
	Spec        scenario.Spec
	Axes        []scenario.SweepAxis // sweep jobs only
	Fingerprint string
	Trace       string // X-Occamy-Trace of the submission that created it

	points int // sweep grid size
	state  JobState
	cached bool
	errMsg string
	result []byte // canonical JSON (ResultDoc or TableDoc)
	cancel atomic.Bool
	// progress is the latest live-progress snapshot, published by the
	// running executor (engine chunk boundaries, landed sweep points) and
	// read lock-free by status polls (see progress.go). nil until the
	// job first reports.
	progress  atomic.Pointer[progressSample]
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Canceled reports whether a cancel has been requested; executors poll
// it between units of work.
func (j *Job) Canceled() bool { return j.cancel.Load() }

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID          string    `json:"id"`
	Kind        string    `json:"kind"`
	State       JobState  `json:"state"`
	Scenario    string    `json:"scenario"`
	Fingerprint string    `json:"fingerprint"`
	Trace       string    `json:"trace,omitempty"`
	Cached      bool      `json:"cached"`
	Error       string    `json:"error,omitempty"`
	Submitted   time.Time `json:"submitted"`
	Started     time.Time `json:"started,omitzero"`
	Finished    time.Time `json:"finished,omitzero"`
	// QueueWaitMs is submitted→started; RunMs is started→finished (for a
	// running job, started→now). Rendered server-side so clients don't
	// subtract timestamps. Absent until the job starts.
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	RunMs       float64 `json:"run_ms,omitempty"`
	// Progress is the live-progress snapshot of a running (or finished)
	// job; see progress.go for the schema. Absent before the first
	// engine chunk (or sweep point) reports.
	Progress *Progress `json:"progress,omitempty"`
}

// JobView is the GET /v1/runs/{id} response: the status snapshot plus,
// once done, the raw result document.
type JobView struct {
	JobStatus
	Result json.RawMessage `json:"result,omitempty"`
}

// status snapshots a job; the caller holds the ledger lock.
func (j *Job) status() JobStatus {
	st := JobStatus{
		ID: j.ID, Kind: j.Kind, State: j.state,
		Scenario: j.Spec.Name, Fingerprint: j.Fingerprint, Trace: j.Trace, Cached: j.cached,
		Error: j.errMsg, Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
	if !j.started.IsZero() {
		st.QueueWaitMs = durToMs(j.started.Sub(j.submitted))
		switch {
		case !j.finished.IsZero():
			st.RunMs = durToMs(j.finished.Sub(j.started))
		case j.state == JobRunning:
			st.RunMs = durToMs(time.Since(j.started))
		}
	}
	st.Progress = j.progressStatus()
	return st
}

// Ledger is the job table and lifecycle both tiers run on: ID
// sequence, fingerprint in-flight coalescing, status snapshots,
// terminal transitions, oldest-terminal-first pruning, the cumulative
// submission counters and lifecycle logging. What differs between the
// tiers is only the executor handed to NewLedger — the worker's
// bounded pool, or the router's shard fan-out.
type Ledger struct {
	prefix string // job-ID prefix: "r" on a worker, "g" on the router
	max    int
	cache  *Cache
	logger *slog.Logger
	// start hands a freshly registered job to the executor. It runs with
	// the ledger lock held — registration, coalescing and refusal are one
	// atomic step — so it must not block; an error refuses the
	// submission. points is the request's expanded sweep grid.
	start func(j *Job, points []scenario.Spec) error

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for listing
	// inflight maps fingerprints to their active (queued/running) job,
	// so concurrent submissions of one spec coalesce to one execution.
	inflight map[string]*Job
	seq      int64
	closed   bool
	// counters is the submission ledger GET /v1/stats reports; busyNanos
	// the executor-busy time of terminal jobs (running ones are credited
	// at snapshot time).
	counters  Counters
	busyNanos int64
}

// NewLedger returns an empty ledger issuing IDs "<prefix>1",
// "<prefix>2", …, answering resubmissions from cache, pruning past
// maxJobs, and executing through start.
func NewLedger(prefix string, maxJobs int, cache *Cache, logger *slog.Logger,
	start func(j *Job, points []scenario.Spec) error) *Ledger {
	return &Ledger{
		prefix: prefix, max: maxJobs, cache: cache, logger: logger, start: start,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
}

// Submit registers one validated request and returns the job's status
// snapshot. Two fast paths never reach the executor: a cache hit
// returns an already-done job carrying the memoized result, and an
// identical request already queued or running coalesces onto that job
// (keeping the first submitter's trace — the job is that submission's
// work; a later joiner learns the original ID from the returned
// status). Otherwise the job goes to the executor, whose refusal is
// returned as the error. Results are content-addressed: a run by its
// spec fingerprint, a sweep by SweepFingerprint, so repeating a grid is
// a cache hit like repeating a run.
func (l *Ledger) Submit(kind string, req Request, trace string) (JobStatus, error) {
	var fp string
	var err error
	if kind == "sweep" {
		fp, err = SweepFingerprint(req.Spec, req.Axes)
	} else {
		fp, err = req.Spec.Fingerprint()
	}
	if err != nil {
		return JobStatus{}, err
	}
	// Probe the cache before taking the lock: with -cache-dir a miss may
	// read the log, which must not stall every status poll.
	// Benign race: an identical job completing in the gap means one
	// extra execution producing the same bytes.
	cached := l.cache.Get(fp)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return JobStatus{}, ErrClosed
	}
	l.counters.Submitted++
	if cached != nil {
		l.counters.CacheHits++
		j := l.newJobLocked(kind, req, fp, trace)
		j.state = JobDone
		j.cached = true
		j.result = cached
		j.finished = j.submitted
		l.log(j, "cache hit")
		return j.status(), nil
	}
	// Coalesce onto an identical in-flight job — unless it has been
	// cancel-flagged (it is doomed to end canceled; this submission
	// deserves a real run).
	if active, ok := l.inflight[fp]; ok && !active.cancel.Load() {
		l.counters.Coalesced++
		l.log(active, "coalesced", "trace_joined", trace)
		return active.status(), nil
	}
	j := l.newJobLocked(kind, req, fp, trace)
	if err := l.start(j, req.Points); err != nil {
		delete(l.jobs, j.ID)
		l.order = l.order[:len(l.order)-1]
		l.counters.Refused++
		l.log(j, "refused", "error", err.Error())
		return JobStatus{}, err
	}
	l.inflight[fp] = j
	l.counters.Enqueued++
	l.log(j, "enqueued")
	return j.status(), nil
}

// newJobLocked registers a fresh queued job, pruning the oldest
// terminal jobs past the ledger bound; the caller holds l.mu.
func (l *Ledger) newJobLocked(kind string, req Request, fp, trace string) *Job {
	l.seq++
	j := &Job{
		ID:          l.prefix + strconv.FormatInt(l.seq, 10),
		Kind:        kind,
		Spec:        req.Spec,
		Axes:        req.Axes,
		Fingerprint: fp,
		Trace:       trace,
		points:      len(req.Points),
		state:       JobQueued,
		submitted:   time.Now().UTC(),
	}
	l.jobs[j.ID] = j
	l.order = append(l.order, j.ID)
	if len(l.order) > l.max {
		l.pruneLocked()
	}
	return j
}

// pruneLocked drops the oldest terminal jobs until the ledger fits the
// bound (live jobs always survive, so the ledger can exceed the bound
// only while that many jobs are actually queued or running); the caller
// holds l.mu. Pruned results stay servable from the cache —
// resubmission is another O(1) hit — only the job ids expire.
func (l *Ledger) pruneLocked() {
	kept := l.order[:0]
	excess := len(l.order) - l.max
	for _, id := range l.order {
		if excess > 0 && l.jobs[id].state.Terminal() {
			delete(l.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	l.order = kept
}

// Start moves a queued job to running, for the executor about to run
// it. false means the job was canceled while it waited (it is terminal
// now) and must be skipped.
func (l *Ledger) Start(j *Job) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if j.state != JobQueued || j.cancel.Load() {
		if !j.state.Terminal() {
			l.finishLocked(j, JobCanceled, nil, "")
		}
		return false
	}
	j.state = JobRunning
	j.started = time.Now().UTC()
	l.log(j, "started", "queue_wait_ms", durToMs(j.started.Sub(j.submitted)))
	return true
}

// Finish records the executor's outcome for a started job: a nil error
// ends it done with data as its result (and memoizes data under the
// job's fingerprint), scenario.ErrCanceled ends it canceled, anything
// else failed.
func (l *Ledger) Finish(j *Job, data []byte, err error) {
	if err == nil {
		// Populate the cache before taking the lock: with -cache-dir this
		// appends the full document to the cache's log.
		l.cache.Put(j.Fingerprint, data)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case errors.Is(err, scenario.ErrCanceled):
		l.finishLocked(j, JobCanceled, nil, "")
	case err != nil:
		l.finishLocked(j, JobFailed, nil, err.Error())
	default:
		l.finishLocked(j, JobDone, data, "")
	}
}

// finishLocked moves a job to a terminal state; the caller holds l.mu.
func (l *Ledger) finishLocked(j *Job, state JobState, result []byte, errMsg string) {
	wasRunning := j.state == JobRunning
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now().UTC()
	if l.inflight[j.Fingerprint] == j {
		delete(l.inflight, j.Fingerprint)
	}
	switch state {
	case JobDone:
		l.counters.Done++
	case JobFailed:
		l.counters.Failed++
	case JobCanceled:
		l.counters.Canceled++
	}
	if wasRunning {
		l.busyNanos += j.finished.Sub(j.started).Nanoseconds()
	}
	attrs := []any{"queue_wait_ms", durToMs(j.started.Sub(j.submitted)), "run_ms", durToMs(j.finished.Sub(j.started))}
	if !wasRunning {
		attrs = nil // canceled straight out of the queue: no durations to report
	}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	l.log(j, string(state), attrs...)
}

// log emits one structured job-lifecycle record; the caller holds l.mu
// (slog handlers are safe there, and job transitions are rare relative
// to the lock's request traffic).
func (l *Ledger) log(j *Job, event string, attrs ...any) {
	if !l.logger.Enabled(nil, slog.LevelInfo) {
		return
	}
	base := []any{"job", j.ID, "kind", j.Kind, "scenario", j.Spec.Name, "state", string(j.state)}
	if j.Trace != "" {
		base = append(base, "trace", j.Trace)
	}
	l.logger.Info(event, append(base, attrs...)...)
}

// Get returns a job's status snapshot.
func (l *Ledger) Get(id string) (JobStatus, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	j, ok := l.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// View returns a job's status snapshot and, once it is done, its
// canonical JSON result bytes.
func (l *Ledger) View(id string) (JobView, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	j, ok := l.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return JobView{JobStatus: j.status(), Result: j.result}, true
}

// Jobs lists every job's status in submission order.
func (l *Ledger) Jobs() []JobStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]JobStatus, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, l.jobs[id].status())
	}
	return out
}

// Len is the number of jobs the ledger holds right now.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order)
}

// Counters snapshots the cumulative submission ledger.
func (l *Ledger) Counters() Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counters
}

// Cancel requests a job stop: a queued job ends canceled at once (the
// executor skips it at Start); a running one is flagged and its
// executor bails at the next unit of work. Canceling a terminal job is
// a no-op returning its current state.
func (l *Ledger) Cancel(id string) (JobStatus, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	j, ok := l.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	if !j.state.Terminal() {
		j.cancel.Store(true)
		if j.state == JobQueued {
			l.finishLocked(j, JobCanceled, nil, "")
		}
	}
	return j.status(), true
}

// close refuses further submissions and cancel-flags every job, so
// running executions bail at their next unit of work and queued ones
// are skipped at Start. false means the ledger was already closed.
func (l *Ledger) close() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.closed = true
	for _, j := range l.jobs {
		j.cancel.Store(true)
	}
	return true
}

// ErrSweepTooLarge rejects sweep grids whose cross-product exceeds the
// tier's MaxSweepPoints.
var ErrSweepTooLarge = errors.New("service: sweep grid too large")

// ExpandSweep validates a sweep and expands its grid. Sweep bombs are
// refused before anything is expanded: the grid size is the exact
// product of the axis value counts, so an oversize request is rejected
// in O(axes) — one POST with three 1000-value axes must not allocate a
// billion specs first (and the product must not overflow on the way).
// Expanding then rejects bad axes (unknown fields, unparsable values)
// and invalid point specs at submit time, not inside an executor.
func ExpandSweep(spec scenario.Spec, axes []scenario.SweepAxis, maxPoints int) (Request, error) {
	points := 1
	for _, ax := range axes {
		n := len(ax.Values)
		if n == 0 {
			return Request{}, fmt.Errorf("sweep axis %q has no values", ax.Path)
		}
		if points > maxPoints/n {
			return Request{}, fmt.Errorf("%w: grid has > %d points (cap %d)", ErrSweepTooLarge, maxPoints, maxPoints)
		}
		points *= n
	}
	specs, _, err := scenario.Expand(spec, axes)
	if err != nil {
		return Request{}, err
	}
	for _, sp := range specs {
		if err := sp.WithDefaults().Validate(); err != nil {
			return Request{}, err
		}
	}
	return Request{Spec: spec, Axes: axes, Points: specs}, nil
}
