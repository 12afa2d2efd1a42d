// occamy-bench snapshots the benchmark suite to a JSON file so the
// repository's performance trajectory is recorded PR over PR.
//
// It shells out to `go test -bench` (so results match what a developer
// sees), parses the standard benchmark output lines, and writes
// BENCH_<date>.json containing every metric each benchmark reported
// (ns/op, B/op, allocs/op, events/sec, ...).
//
// It can also gate on an earlier snapshot: -against diffs the fresh
// ns/op and B/op benchmark-by-benchmark against a baseline file and
// exits non-zero when a common benchmark's ns/op rose by more than -tol,
// or its least B/op passed the baseline's greatest by more than 2 % (CI
// runs the long macro benchmarks this way; at -benchtime 1x their ns/op
// is a real multi-hundred-millisecond measurement, while micro
// benchmarks need a real -benchtime).
//
// With -history it does not benchmark at all: it loads every committed
// snapshot matching a glob and renders the ns/op and events/sec
// trajectory of each benchmark across them as a sparkline table — the
// repository's performance history at a glance.
//
// Usage:
//
//	occamy-bench                          # full suite, 1x iterations, BENCH_<today>.json
//	occamy-bench -bench 'Engine|Switch'   # only the core micro-benchmarks
//	occamy-bench -benchtime 2s -o out.json
//	occamy-bench -bench Fig -against BENCH_2026-07-30.json -tol 0.20
//	occamy-bench -history 'BENCH_*.json'  # trajectory across snapshots
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"occamy/internal/trace"
)

// Result is one benchmark's parsed output line.
type Result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Snapshot is the file format.
type Snapshot struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Bench     string   `json:"bench_pattern"`
	BenchTime string   `json:"benchtime"`
	Packages  []string `json:"packages"`
	Results   []Result `json:"results"`
}

func main() {
	bench := flag.String("bench", ".", "benchmark pattern passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value (1x = one iteration smoke)")
	out := flag.String("o", "", "output file (default BENCH_<date>.json)")
	pkgs := flag.String("pkgs", "./...", "packages to benchmark (comma-separated)")
	count := flag.Int("count", 1, "go test -count: repetitions per benchmark; the snapshot keeps each benchmark's best (min ns/op) run, with the min and max B/op of all")
	against := flag.String("against", "", "baseline snapshot to diff ns/op and B/op against; exit non-zero on regression")
	tol := flag.Float64("tol", 0.20, "allowed fractional ns/op regression vs -against (0.20 = +20%)")
	historyGlob := flag.String("history", "", "snapshot glob (e.g. 'BENCH_*.json'): render the ns/op + events/sec trajectory across them instead of benchmarking")
	flag.Parse()

	if *historyGlob != "" {
		if !history(*historyGlob) {
			os.Exit(1)
		}
		return
	}

	pkgList := strings.Split(*pkgs, ",")
	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count)}
	args = append(args, pkgList...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	fmt.Fprintf(os.Stderr, "running: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "occamy-bench: go test failed: %v\n", err)
		os.Exit(1)
	}

	snap := Snapshot{
		Date:      time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Bench:     *bench,
		BenchTime: *benchtime,
		Packages:  pkgList,
	}

	pkg := ""
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// `ok  	occamy/internal/sim	2.608s` trails each package; `pkg:`
		// lines lead them in verbose mode. Track whichever appears.
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		}
		if r, ok := parseBenchLine(line); ok {
			r.Package = pkg
			snap.Results = mergeResult(snap.Results, r)
		}
	}

	name := *out
	if name == "" {
		name = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "occamy-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(name, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "occamy-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d benchmark results to %s\n", len(snap.Results), name)

	if *against != "" {
		if !compare(snap, *against, *tol) {
			os.Exit(2)
		}
	}
}

// key identifies a benchmark across snapshots. The package field is
// empty in non-verbose runs, so the name (unique across this repo's
// suite) is the join key.
func key(r Result) string { return r.Name }

// allocTol is the B/op rise -against allows: BENCHMARK.json's bound on
// alloc_mb_per_job. maxBytes is the greatest B/op of a benchmark's runs.
const allocTol, maxBytes = 0.02, "B/op-max"

// mergeResult folds -count repetitions into one entry per benchmark,
// keeping the fastest run: timing noise is strictly additive, so the
// minimum ns/op is the most reproducible estimator across machines. B/op
// varies from run to run too (a figure's parallel grid hands the spare
// substrate to whichever run finishes first, and a collection empties
// the sync.Pools), so the entry keeps the least and the greatest.
func mergeResult(results []Result, r Result) []Result {
	r.Metrics[maxBytes] = r.Metrics["B/op"]
	for i := range results {
		if key(results[i]) != key(r) {
			continue
		}
		lo, hi := min(results[i].Metrics["B/op"], r.Metrics["B/op"]), max(results[i].Metrics[maxBytes], r.Metrics[maxBytes])
		if r.Metrics["ns/op"] < results[i].Metrics["ns/op"] {
			results[i] = r
		}
		results[i].Metrics["B/op"], results[i].Metrics[maxBytes] = lo, hi
		return results
	}
	return append(results, r)
}

// compare diffs ns/op and B/op against a baseline snapshot and reports
// whether every common benchmark stayed within the regression
// tolerances: tol for ns/op, and allocTol for the least B/op over the
// baseline's greatest (its least, in a snapshot that kept only that).
func compare(snap Snapshot, baselinePath string, tol float64) bool {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "occamy-bench: reading baseline: %v\n", err)
		return false
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "occamy-bench: parsing baseline %s: %v\n", baselinePath, err)
		return false
	}
	old := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		if ns, ok := r.Metrics["ns/op"]; ok && ns > 0 {
			old[key(r)] = r
		}
	}
	fmt.Printf("\nns/op, and B/op (the baseline's greatest -> the least), vs %s (%s), tolerance +%.0f%% and +%.0f%%:\n",
		baselinePath, base.Date, tol*100, allocTol*100)
	var regressed []string
	common := 0
	for _, r := range snap.Results {
		ns, ok := r.Metrics["ns/op"]
		o, okOld := old[key(r)]
		if !ok || !okOld || ns <= 0 {
			continue
		}
		common++
		oldNS, delta := o.Metrics["ns/op"], ns/o.Metrics["ns/op"]-1
		oldB, b := cmp.Or(o.Metrics[maxBytes], o.Metrics["B/op"]), r.Metrics["B/op"]
		status := "ok"
		if delta > tol || b > oldB*(1+allocTol) {
			status = "REGRESSED"
			regressed = append(regressed, r.Name)
		}
		fmt.Printf("  %-44s %14.0f -> %14.0f  %+6.1f%%  %12.0f -> %12.0f B/op  %s\n", r.Name, oldNS, ns, delta*100, oldB, b, status)
	}
	if common == 0 {
		fmt.Fprintf(os.Stderr, "occamy-bench: no common benchmarks between this run and %s\n", baselinePath)
		return false
	}
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "occamy-bench: %d benchmark(s) regressed more than %.0f%% in ns/op or %.0f%% in B/op: %s\n",
			len(regressed), tol*100, allocTol*100, strings.Join(regressed, ", "))
		return false
	}
	fmt.Printf("all %d common benchmarks within tolerance\n", common)
	return true
}

// history loads every snapshot matching the glob, orders them by their
// recorded date (filename breaking ties), and renders each benchmark's
// ns/op and events/sec trajectory across them as sparkline rows.
func history(pattern string) bool {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "occamy-bench: bad -history glob: %v\n", err)
		return false
	}
	if len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "occamy-bench: no snapshots match %q\n", pattern)
		return false
	}
	type snapFile struct {
		path string
		snap Snapshot
	}
	snaps := make([]snapFile, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "occamy-bench: %v\n", err)
			return false
		}
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			fmt.Fprintf(os.Stderr, "occamy-bench: parsing %s: %v\n", p, err)
			return false
		}
		snaps = append(snaps, snapFile{p, s})
	}
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].snap.Date != snaps[j].snap.Date {
			return snaps[i].snap.Date < snaps[j].snap.Date
		}
		return snaps[i].path < snaps[j].path
	})

	fmt.Printf("bench trajectory across %d snapshots:\n", len(snaps))
	for i, sf := range snaps {
		fmt.Printf("  [%d] %-28s %s  %s %s/%s  %d cpu  -bench %q -benchtime %s\n",
			i, sf.path, sf.snap.Date, sf.snap.GoVersion, sf.snap.GOOS, sf.snap.GOARCH,
			sf.snap.NumCPU, sf.snap.Bench, sf.snap.BenchTime)
	}
	fmt.Println()

	// Union of benchmark names, sorted; each row charts the snapshots
	// that measured it (gaps are simply skipped).
	nameSet := map[string]bool{}
	nameW := len("benchmark")
	for _, sf := range snaps {
		for _, r := range sf.snap.Results {
			if !nameSet[r.Name] {
				nameSet[r.Name] = true
				if len(r.Name) > nameW {
					nameW = len(r.Name)
				}
			}
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)

	metricRow := func(name, metric string) (vals []float64, ok bool) {
		for _, sf := range snaps {
			for _, r := range sf.snap.Results {
				if r.Name != name {
					continue
				}
				if v, has := r.Metrics[metric]; has && v > 0 {
					vals = append(vals, v)
				}
				break
			}
		}
		return vals, len(vals) > 0
	}
	span := func(vals []float64) string {
		first, last := vals[0], vals[len(vals)-1]
		return fmt.Sprintf("%12.4g -> %12.4g  %+6.1f%%", first, last, (last/first-1)*100)
	}

	sparkW := len(snaps)
	if sparkW < 8 {
		sparkW = 8 // pad short histories so the columns line up
	}
	fmt.Printf("%-*s  %-*s %-38s  %-*s %s\n", nameW, "benchmark",
		sparkW, "ns/op", "first -> last      delta", sparkW, "ev/s", "first -> last      delta")
	for _, name := range names {
		fmt.Printf("%-*s  ", nameW, name)
		if ns, ok := metricRow(name, "ns/op"); ok {
			fmt.Printf("%-*s %-38s", sparkW, trace.Sparkline(ns, sparkW), span(ns))
		} else {
			fmt.Printf("%-*s %-38s", sparkW, "-", "-")
		}
		if ev, ok := metricRow(name, "events/sec"); ok {
			fmt.Printf("  %-*s %s", sparkW, trace.Sparkline(ev, sparkW), span(ev))
		} else {
			fmt.Printf("  %-*s %s", sparkW, "-", "-")
		}
		fmt.Println()
	}
	return true
}

// parseBenchLine parses `BenchmarkX-8  100  123 ns/op  4 B/op  1 allocs/op
// 5e6 events/sec` into a Result. Metric fields come in value-unit pairs.
func parseBenchLine(line string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}
