// Command occamy-e2e is the repository's benchmark: four closed-loop
// workloads that each stress different layers, seven end-to-end metrics
// measured with tracing off, and a traced mode that reports per-layer
// metrics from spans the harness records around each layer's public
// functions. See ../../README.md for the design and how to cite it.
//
//	go run -C benchmarks ./cmd/occamy-e2e -seed 1             every workload, untraced
//	go run -C benchmarks ./cmd/occamy-e2e -workload sim-long  one workload
//	go run -C benchmarks ./cmd/occamy-e2e -trace 1            per-layer metrics and a span file
//	go run -C benchmarks ./cmd/occamy-e2e -aa 10              repeat and print the spreads
//
// The last line of a workload's output is one JSON object: correct,
// attempted, failed and metrics.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

var workloads = []workload{
	{
		name:    "sim-long",
		clients: 1,
		why:     "ten 0.1-0.5 s simulations per pass: the event loop (sim, switchsim, bm/core, transport, netsim, linkfault) is over 90 % of a job, under preemptive and admission-only policies",
		setup: func(e env) (runner, error) {
			return newSimRunner(simLongJobs(e.seed, e.smoke))
		},
	},
	{
		name:    "sim-short",
		clients: 1,
		why:     "400 raw-injection runs of ~5 ms per pass: per-run fixed costs (build, recorder, telemetry, document, encode) are a large share, so allocation and encode work shows here and not on sim-long",
		setup: func(e env) (runner, error) {
			return newSimRunner(simShortJobList(e.seed, e.smoke))
		},
	},
	{
		name:    "serve-hit",
		clients: hitClients,
		why:     "service read path over loopback HTTP, 2 clients on a prefilled cache: parse, fingerprint, cache get, job ledger and result relay, with no simulation in the timed window",
		setup:   setupServeHit,
	},
	{
		name:    "fleet-miss",
		clients: 1,
		why:     "service write path through the router, every fingerprint fresh: ring lookup, worker hop, poll loops, 4-point sweeps and disk-backed cache puts around a ~5 ms simulation",
		setup:   setupFleetMiss,
	},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a workload prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport(o *outcome, defs []metricDef, values map[string]float64) report {
	r := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
	smoke    bool
	aa       int
	tmp      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	flag.Uint64Var(&o.seed, "seed", 1, "benchmark seed: the same seed gives the same job lists")
	flag.IntVar(&o.seconds, "seconds", 18, "how long to measure: one timed pass per 2 s")
	flag.IntVar(&o.trace, "trace", 0, "1: record spans and report the per-layer metrics instead")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default <tmp>/spans-<workload>.json)")
	flag.BoolVar(&o.smoke, "smoke", false, "tenth-size lists, one timed pass, traced: a functional check, not a measurement")
	flag.IntVar(&o.aa, "aa", 0, "run the untraced suite N times on seeds seed..seed+N-1 and print each metric's spread beside its bound")
	flag.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "scratch directory")
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "occamy-e2e:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the selected mode and returns the exit code: 0 when every
// output was correct (and, with -aa, every spread within its bound).
func run(o options, out io.Writer) (int, error) {
	selected := workloads
	if o.workload != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == o.workload })
		if i < 0 {
			return 2, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = workloads[i : i+1]
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return 2, err
	}
	if o.aa > 0 {
		return selfCheck(o, selected, out)
	}
	if o.workload == "" {
		// One process per workload, so that rss_peak_mb is the workload's own.
		code := 0
		for _, w := range selected {
			rep, err := runChild(w.name, o.seed, o, out)
			if err != nil {
				return 2, err
			}
			if !rep.Correct {
				code = 1
			}
		}
		return code, nil
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(selected[0].clients))
	fmt.Fprintf(out, "occamy-e2e %s seed=%d seconds=%d trace=%d smoke=%t %s/%s nproc=%d gomaxprocs=%d %s\n", o.workload,
		o.seed, o.seconds, o.trace, o.smoke, runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	e := env{seed: o.seed, smoke: o.smoke, tmp: o.tmp}
	measureFn := runUntraced
	if o.trace == 1 || o.smoke {
		measureFn = runTraced
	}
	rep, err := measureFn(selected[0], e, o, out)
	if err != nil {
		return 2, err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !rep.Correct {
		return 1, nil
	}
	return 0, nil
}

// printMetrics prints the metrics by name with their units. Per-layer
// metrics of layers the workload does not cross read 0 and are only
// counted.
func printMetrics(out io.Writer, defs []metricDef, values map[string]float64) {
	zero := 0
	for _, d := range defs {
		if values[d.name] == 0 {
			zero++
			continue
		}
		fmt.Fprintf(out, "  %-42s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	if zero > 0 {
		fmt.Fprintf(out, "  (%d metrics read 0: this workload does not cross their layer)\n", zero)
	}
}

func printOutcome(out io.Writer, o *outcome) {
	fmt.Fprintf(out, "  ops=%d failed=%d timed_passes=%d latency_samples=%d\n", o.attempted, o.failed, len(o.passes), samples(o.passes))
	if len(o.passes) > 0 {
		fmt.Fprintf(out, "  job_list_digest=%s\n", hex.EncodeToString(o.passes[0].listHash[:8]))
	}
	fmt.Fprintf(out, "  result_digest=%s\n", hex.EncodeToString(o.reference.digest[:]))
	if o.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", o.firstErr)
	}
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(w workload, e env, o options, out io.Writer) (report, error) {
	fmt.Fprintf(out, "== %s (untraced) ==\n", w.name)
	res, err := measure(w, e, o.seconds)
	if err != nil {
		return report{}, err
	}
	values := endToEndMetrics(res)
	printMetrics(out, endToEnd, values)
	fmt.Fprintf(out, "  %-42s %14.4f %%\n", "harness.host_noise_pct", hostNoisePct(res.passes))
	for i, st := range res.passes {
		fmt.Fprintf(out, "  pass %d: wall %.3f s, cpu %.3f s, p50 %.3f ms, p90 %.3f ms\n", i, st.wall, st.cpu,
			percentile(st.lat, 0.50), percentile(st.lat, 0.90))
	}
	printOutcome(out, res)
	return newReport(res, endToEnd, values), nil
}

const (
	tracedPasses    = 3
	referencePasses = 2 // untraced passes of a traced run, the base of trace_overhead_pct
)

// runTraced sets the workload up once, runs two untraced passes for
// reference and three with spans on, then the layer's kernels, and
// reports the per-layer metrics. The spans go to the span file.
func runTraced(w workload, e env, o options, out io.Writer) (report, error) {
	fmt.Fprintf(out, "== %s (traced) ==\n", w.name)
	e.tr = newTracer()
	res := &outcome{}
	r, err := setupRound(w, e, res)
	if err != nil {
		return report{}, err
	}
	nRef, nTraced := referencePasses, tracedPasses
	if e.smoke {
		nRef, nTraced = 1, 1
	}
	budget := time.Duration(o.seconds) * time.Second
	ref, err := timedPasses(r, 0, nRef, budget, e.tr, res)
	if err == nil {
		e.tr.on.Store(true)
		res.passes, err = timedPasses(r, nRef, nTraced, budget, e.tr, res)
		e.tr.on.Store(false)
	}
	if err != nil {
		r.close(false)
		return report{}, err
	}
	lists, err := r.lists(0)
	if err != nil {
		r.close(false)
		return report{}, err
	}

	spans := e.tr.snapshot()
	m := map[string]float64{}
	spanLayers(spans, m)
	r.layers(m)
	parseMs, fpMs := parseKernel(lists)
	if _, ok := m["scenario.parse_ms"]; !ok {
		m["scenario.parse_ms"] = parseMs
	}
	m["scenario.fingerprint_ms"] = fpMs
	if w.name == "sim-long" {
		simKernels(m, e.smoke)
		switchKernels(m, e.smoke)
		m["scenario.sweep_speedup_j2"] = sweepSpeedup(e.smoke)
	}
	m["harness.host_noise_pct"] = hostNoisePct(slices.Concat(ref, res.passes))
	untraced, traced := endToEndMetrics(&outcome{passes: ref})["jobs_per_s"], endToEndMetrics(res)["jobs_per_s"]
	m["harness.trace_overhead_pct"] = 100 * ratio(untraced-traced, untraced)
	res.count(r.close(true))

	res.count(checkSelfTimes(spans))
	path := o.traceOut
	if path == "" {
		path = filepath.Join(o.tmp, "spans-"+w.name+".json")
	}
	if err := writeSpans(path, w.name, spans); err != nil {
		return report{}, err
	}
	printMetrics(out, perLayer, m)
	fmt.Fprintf(out, "  self time by span, %d traced passes:\n", len(res.passes))
	for _, row := range selfTable(spans) {
		fmt.Fprintln(out, row)
	}
	fmt.Fprintf(out, "  spans=%d file=%s\n", len(spans), path)
	printOutcome(out, res)
	return newReport(res, perLayer, m), nil
}

// checkSelfTimes verifies the span accounting job by job: every attached
// span lies inside its parent and beside no sibling, which is what makes
// self time (a span minus its children) add up to the job's root span
// with no time counted twice. It returns the jobs checked and the jobs
// that break the rule.
func checkSelfTimes(spans []span) (checks, failed int) {
	byID := make(map[int]span, len(spans))
	children := map[int][]span{} // parent ID → children, in recording order
	jobs := map[int]bool{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Detached {
			continue
		}
		jobs[s.Job] = true
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	bad := map[int]bool{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		at := s.Start
		for _, k := range kids {
			if k.Start < at || k.End > s.End || k.End < k.Start || byID[k.Parent].Job != k.Job {
				bad[s.Job] = true
			}
			at = k.End
		}
	}
	return len(jobs), len(bad)
}
