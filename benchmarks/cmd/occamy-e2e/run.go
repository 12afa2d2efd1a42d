package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// env is what a workload's set-up is given.
type env struct {
	seed  uint64
	smoke bool
	tmp   string  // scratch directory, inside the checkout
	tr    *tracer // nil unless the run is traced
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name, why string
	// clients is how many closed-loop clients the workload has, and the
	// GOMAXPROCS it runs under: with more scheduler threads than clients
	// the spare one sleeps and is woken for every GC cycle and poll, and on
	// shared virtual CPUs whole runs then come out 20-40 % apart
	// (CALIBRATION.md). On as many threads as clients, background work
	// takes its time from the jobs, where job_ms_* can see it.
	clients int
	// setup builds a fresh instance: specs, servers, caches, temporary
	// directories. The harness then runs the warm-up pass on it.
	setup func(env) (runner, error)
}

// runner is one set-up instance of a workload. Every job is a closed
// loop: a client sends its next job only once the last one returned.
type runner interface {
	// lists returns each client's job list for a pass (−1 is the warm-up,
	// whose results become the reference digests). It is called outside
	// the timed window.
	lists(pass int) ([][]job, error)
	// do runs one job to its verified result and returns the digest of the
	// result bytes. Any refusal, wrong flag or wrong byte is an error.
	do(c *client, j *job) ([32]byte, error)
	// settle runs between passes, outside the timed window, and returns
	// how many checks it made and how many failed.
	settle() (checks, failed int)
	// close tears the instance down; final reports whether it is the
	// instance the run measured, whose exit checks count.
	close(final bool) (checks, failed int)
	// layers adds the runner's own per-layer figures (counts it read from
	// results or ledgers during traced passes).
	layers(m map[string]float64)
}

// client is one closed-loop load generator goroutine.
type client struct {
	tr  *tracer
	job int // number of the job in flight, shared by its spans
}

// passStats is what one pass measured.
type passStats struct {
	wall, cpu float64 // seconds
	allocMB   float64
	lat       []float64 // ms, ascending, successful jobs only
	jobs      int
	failed    int
	digest    [32]byte // over the jobs' result digests, client-major
	listHash  [32]byte // identifies the job lists the pass ran
	firstErr  error
}

// jobSeq numbers jobs across the whole process, so spans of different
// passes never share a job number.
var jobSeq struct {
	sync.Mutex
	n int
}

func nextJob() int {
	jobSeq.Lock()
	defer jobSeq.Unlock()
	jobSeq.n++
	return jobSeq.n
}

// runPass executes one pass: every client works through its own list.
func runPass(r runner, pass int, tr *tracer) (passStats, error) {
	lists, err := r.lists(pass)
	if err != nil {
		return passStats{}, err
	}
	type result struct {
		ms     float64
		digest [32]byte
		err    error
	}
	results := make([][]result, len(lists))
	listHash := listDigest(lists)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuSeconds(), time.Now()
	var wg sync.WaitGroup
	for ci := range lists {
		results[ci] = make([]result, len(lists[ci]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{tr: tr}
			for i := range lists[ci] {
				j := &lists[ci][i]
				c.job = nextJob()
				root := tr.beginSpan(span{Job: c.job, Name: "job", Kind: j.kind})
				start := time.Now()
				d, err := r.do(c, j)
				results[ci][i] = result{ms: float64(time.Since(start)) / 1e6, digest: d, err: err}
				tr.end(root)
			}
		}()
	}
	wg.Wait()
	st := passStats{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0, listHash: listHash}
	runtime.ReadMemStats(&ms1)
	st.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)

	h := sha256.New()
	for _, rs := range results {
		for _, o := range rs {
			st.jobs++
			if o.err != nil {
				st.failed++
				if st.firstErr == nil {
					st.firstErr = o.err
				}
				continue
			}
			st.lat = append(st.lat, o.ms)
			h.Write(o.digest[:])
		}
	}
	slices.Sort(st.lat)
	st.digest = [32]byte(h.Sum(nil))
	return st, nil
}

// outcome is one workload's run.
type outcome struct {
	setups    []float64 // seconds, one per set-up round
	reference passStats // the warm-up pass of the measured instance
	passes    []passStats
	attempted int
	failed    int
	firstErr  error
}

func (o *outcome) count(checks, failed int) {
	o.attempted += checks
	o.failed += failed
}

func (o *outcome) countPass(st passStats) {
	o.count(st.jobs, st.failed)
	if o.firstErr == nil {
		o.firstErr = st.firstErr
	}
}

// setupRound builds one instance and warms it up: the warm-up pass fills
// pools and caches and records the reference digests, and is part of the
// set-up time.
func setupRound(w workload, e env, o *outcome) (runner, error) {
	runtime.GC() // start every round from a collected heap
	t0 := time.Now()
	r, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	warm, err := runPass(r, -1, nil)
	if err != nil {
		r.close(false)
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	o.setups = append(o.setups, time.Since(t0).Seconds())
	o.countPass(warm)
	o.reference = warm
	return r, nil
}

// timedPasses runs passes first..first+n−1 and the between-pass checks. It
// stops early, never before three passes, once the passes have taken
// 1.25× the time the run was asked to measure (sim-long's nine take
// 1.2×): the accepting driver caps the time of all its runs together, and
// a host half as fast must not push them past it.
func timedPasses(r runner, first, n int, budget time.Duration, tr *tracer, o *outcome) ([]passStats, error) {
	var passes []passStats
	start := time.Now()
	for p := 0; p < n; p++ {
		if p >= 3 && time.Since(start) > budget*5/4 {
			break
		}
		st, err := runPass(r, first+p, tr)
		if err != nil {
			return nil, err
		}
		o.countPass(st)
		o.count(r.settle())
		passes = append(passes, st)
	}
	return passes, nil
}

// nominalPass is the length a pass is sized to; -seconds buys one pass
// per nominalPass, so the pass count (and with it memory growth and the
// digests) is the same on every run of a given -seconds.
const nominalPass = 2 * time.Second

func passCount(seconds int, smoke bool) int {
	if smoke {
		return 1
	}
	return max(3, int(time.Duration(seconds)*time.Second/nominalPass))
}

// setupRounds is how often an untraced run sets the workload up; setup_s
// is the median round.
const setupRounds = 3

// measure is an untraced run: set up three times, keep the last
// instance, run the timed passes on it.
func measure(w workload, e env, seconds int) (*outcome, error) {
	o := &outcome{}
	var r runner
	rounds := setupRounds
	if e.smoke {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		if r != nil {
			r.close(false)
		}
		var err error
		if r, err = setupRound(w, e, o); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	passes, err := timedPasses(r, 0, passCount(seconds, e.smoke), time.Duration(seconds)*time.Second, nil, o)
	o.passes = passes
	o.count(r.close(true))
	return o, err
}

// endToEndMetrics reduces the passes to the seven end-to-end metrics.
func endToEndMetrics(o *outcome) map[string]float64 {
	var p50, p90, rate, cpu, alloc []float64
	for _, st := range o.passes {
		if st.jobs == 0 {
			continue
		}
		n := float64(st.jobs)
		p50 = append(p50, percentile(st.lat, 0.50))
		p90 = append(p90, percentile(st.lat, 0.90))
		rate = append(rate, n/st.wall)
		cpu = append(cpu, st.cpu*1e3/n)
		alloc = append(alloc, st.allocMB/n)
	}
	return map[string]float64{
		"setup_s":          median(o.setups),
		"job_ms_p50":       best(p50, false),
		"job_ms_p90":       best(p90, false),
		"jobs_per_s":       best(rate, true),
		"cpu_ms_per_job":   best(cpu, false),
		"alloc_mb_per_job": median(alloc),
		"rss_peak_mb":      peakRSSMB(),
	}
}

// hostNoisePct is how much slower the median pass was than the best one:
// how disturbed the host was while the run measured.
func hostNoisePct(passes []passStats) float64 {
	var walls []float64
	for _, st := range passes {
		walls = append(walls, st.wall)
	}
	b := best(walls, false)
	return 100 * ratio(median(walls)-b, b)
}

func samples(passes []passStats) int {
	n := 0
	for _, st := range passes {
		n += len(st.lat)
	}
	return n
}
