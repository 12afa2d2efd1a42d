package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"occamy/internal/scenario"
)

// ErrQueueFull is the capacity refusal: the not-yet-running backlog is
// at QueueDepth. HTTP maps it to 503 (retryable), unlike validation
// errors (400).
var ErrQueueFull = errors.New("service: job queue full")

// Config sizes a Service.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the backlog of not-yet-running jobs; Submit
	// refuses beyond it (default 1024).
	QueueDepth int
	// MaxJobs bounds the job ledger: once exceeded, the oldest terminal
	// jobs (and their result references) are pruned so a long-running
	// server's memory is bounded by the cache budget, not by its request
	// history (default 4096). Live jobs are never pruned.
	MaxJobs int
	// MaxSweepPoints bounds a single sweep's expanded grid; SubmitSweep
	// refuses larger cross-products with ErrSweepTooLarge before
	// expanding them (default 256 — well below QueueDepth, and one
	// sweep job already saturates the worker pool via RunGrid).
	MaxSweepPoints int
	// CacheBytes is the result-cache memory budget (default 256 MB);
	// CacheDir, when non-empty, persists results to an append-only log
	// there, which this service owns (see NewCache).
	CacheBytes int64
	CacheDir   string
	// Logger receives structured job-lifecycle and request records
	// (occamy-served wires a JSON handler behind -log-level). nil
	// discards everything, so embedders and tests stay silent.
	Logger *slog.Logger
}

// Service is the scenario-execution engine behind the HTTP API: a
// bounded worker pool draining a job queue, with a content-addressed
// cache short-circuiting any spec that has already been simulated. The
// job table and the route table are the shared kernel (Ledger, API);
// the pool below is this tier's executor.
type Service struct {
	cache          *Cache
	jobs           *Ledger
	api            *API
	maxSweepPoints int
	workers        int
	started        time.Time

	queue chan *Job
	wg    sync.WaitGroup
}

// New starts a service: the worker pool is running on return.
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = 256
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	cache, err := NewCache(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cache:          cache,
		api:            NewAPI(cfg.Logger),
		maxSweepPoints: cfg.MaxSweepPoints,
		workers:        cfg.Workers,
		started:        time.Now(),
		queue:          make(chan *Job, cfg.QueueDepth),
	}
	s.jobs = NewLedger("r", cfg.MaxJobs, cache, cfg.Logger, s.enqueue)
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close stops accepting jobs, cancels the backlog, waits for the
// workers to finish their current simulations, then closes the cache.
func (s *Service) Close() {
	if !s.jobs.close() {
		return
	}
	close(s.queue)
	s.wg.Wait()
	_ = s.cache.Close() // persistence is best effort, like every append
}

// Cache exposes the result cache (stats endpoint, tests).
func (s *Service) Cache() *Cache { return s.cache }

// Submit enqueues a validated spec for asynchronous execution and
// returns the job's status snapshot; see Ledger.Submit for the cache-hit
// and coalescing fast paths. A full queue is refused with ErrQueueFull.
func (s *Service) Submit(spec scenario.Spec) (JobStatus, error) {
	return s.jobs.Submit("run", Request{Spec: spec}, "")
}

// SubmitSweep enqueues a sweep grid: the base spec crossed with the
// axes, executed through experiments.RunGrid, producing a summary table
// (one row per grid point). Grids past Config.MaxSweepPoints are
// refused with ErrSweepTooLarge.
func (s *Service) SubmitSweep(spec scenario.Spec, axes []scenario.SweepAxis) (JobStatus, error) {
	req, err := ExpandSweep(spec, axes, s.maxSweepPoints)
	if err != nil {
		return JobStatus{}, err
	}
	return s.jobs.Submit("sweep", req, "")
}

// SweepFingerprint extends the spec fingerprint with the sweep axes.
func SweepFingerprint(spec scenario.Spec, axes []scenario.SweepAxis) (string, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "occamy/sweep/v%s\n%s\n", scenario.Version, fp)
	for _, ax := range axes {
		// %q-quote each token: values may contain spaces and commas (a
		// value is any JSON text or bare string), so naive joining would
		// let distinct grids collide on one key.
		fmt.Fprintf(h, "%q", ax.Path)
		for _, v := range ax.Values {
			fmt.Fprintf(h, "=%q", v)
		}
		fmt.Fprintln(h)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// enqueue is the ledger's executor hook: push a queued job to the
// workers, or refuse when the backlog is at QueueDepth.
func (s *Service) enqueue(j *Job, _ []scenario.Spec) error {
	select {
	case s.queue <- j:
		return nil
	default:
		return fmt.Errorf("%w (%d queued)", ErrQueueFull, cap(s.queue))
	}
}

// Get returns a job's status snapshot.
func (s *Service) Get(id string) (JobStatus, bool) { return s.jobs.Get(id) }

// Jobs lists every job's status in submission order.
func (s *Service) Jobs() []JobStatus { return s.jobs.Jobs() }

// Cancel requests a job stop: a queued job is skipped when a worker
// pops it; a running one bails at its next engine chunk. Canceling a
// terminal job is a no-op returning its current state.
func (s *Service) Cancel(id string) (JobStatus, bool) { return s.jobs.Cancel(id) }

// Result returns a done job's canonical JSON result bytes.
func (s *Service) Result(id string) ([]byte, bool) {
	view, ok := s.jobs.View(id)
	return view.Result, ok && view.State == JobDone
}

// worker drains the queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end. Determinism note: the simulation
// seeds every RNG from the spec (WithDefaults pins Seed), so a job's
// result bytes depend only on its fingerprint preimage — never on
// which worker ran it, the pool size, or queue order. That property is
// what makes the cache sound.
func (s *Service) runJob(j *Job) {
	if !s.jobs.Start(j) {
		return
	}
	var data []byte
	var err error
	if j.Kind == "sweep" {
		data, err = runSweepJob(j)
	} else {
		data, err = runJobOnce(j)
	}
	s.jobs.Finish(j, data, err)
}

// runJobOnce executes a single spec and encodes the canonical document.
// The progress hook fires at engine chunk boundaries, outside the
// deterministic core, and publishes onto the job's atomic snapshot
// (progress.go) — the wall clock is read here, never inside scenario.
func runJobOnce(j *Job) ([]byte, error) {
	res, err := scenario.RunWithProgress(j.Spec, j.Canceled, j.runProgressFunc())
	if err != nil {
		return nil, err
	}
	return res.EncodeJSON(true)
}

// runSweepJob executes a grid and encodes its summary table. The grid
// fans out through experiments.RunGrid inside RunSweep, so one sweep
// job saturates the machine the same way the CLI -j path does; the
// cancel flag reaches every grid point's engine loop. Sweep progress is
// point-granular: the pointDone hook fires concurrently from grid
// workers, so it must be (and is) atomic.
func runSweepJob(j *Job) ([]byte, error) {
	tab, err := scenario.RunSweepWithProgress(j.Spec, j.Axes, j.Canceled, j.SweepProgressFunc())
	if err != nil {
		return nil, err
	}
	doc := scenario.NewTableDoc(tab)
	return doc.Encode()
}
