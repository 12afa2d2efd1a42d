package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method),
// which is what the driver that accepts the benchmark uses.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

// maxPairwise is the largest relative difference between any two values.
func maxPairwise(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := slices.Min(vs), slices.Max(vs)
	return ratio(hi-lo, lo)
}

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func worsening(a, b float64, higher bool) float64 {
	if higher {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// selfCheck is -aa: it runs the untraced suite N times, each run of a
// workload in a process of its own (so rss_peak_mb is that run's) on
// seeds seed..seed+N-1, and prints per workload × metric the spread the
// accepting driver computes (interquartile distance over the median),
// the largest pairwise difference, and the drift of the second half's
// median against the first half's, beside the declared bound. It returns
// 1 when a run was incorrect, a spread exceeds its bound (setup_s is
// exempt, as with the driver), or a drift does.
func selfCheck(o options, selected []workload, out io.Writer) (int, error) {
	o.trace, o.smoke, o.traceOut = 0, false, ""
	host, _ := os.Hostname()
	fmt.Fprintf(out, "occamy-e2e -aa %d: seeds %d..%d, -seconds %d, host %s, %s/%s nproc=%d, %s, %s\n",
		o.aa, o.seed, o.seed+uint64(o.aa)-1, o.seconds, host, runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), runtime.Version(), time.Now().UTC().Format(time.RFC3339))
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	code := 0
	start := time.Now()
	for i := 0; i < o.aa; i++ {
		for _, w := range selected {
			rep, err := runChild(w.name, o.seed+uint64(i), o, nil)
			if err != nil {
				return 2, fmt.Errorf("run %d of %s: %w", i, w.name, err)
			}
			if !rep.Correct {
				fmt.Fprintf(out, "run %d of %s: incorrect (%d of %d failed)\n", i, w.name, rep.Failed, rep.Attempted)
				code = 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				values[w.name][d.name] = append(values[w.name][d.name], rep.Metrics[d.name].Value)
			}
		}
	}
	fmt.Fprintf(out, "%d runs in %.0f s\n\n", o.aa*len(selected), time.Since(start).Seconds())
	fmt.Fprintf(out, "%-11s %-17s %12s %9s %9s %9s %7s\n", "workload", "metric", "median", "spread%", "maxpair%", "drift%", "bound%")
	for _, w := range selected {
		for _, d := range endToEnd {
			vs := values[w.name][d.name]
			half := len(vs) / 2
			drift := math.NaN()
			if half >= 2 {
				drift = worsening(median(vs[:half]), median(vs[half:]), d.higher)
			}
			verdict := ""
			if (d.name != "setup_s" && spread(vs) > d.bound) || drift > d.bound {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Fprintf(out, "%-11s %-17s %12.4f %9.2f %9.2f %9.2f %7.1f%s\n", w.name, d.name,
				median(vs), 100*spread(vs), 100*maxPairwise(vs), 100*drift, 100*d.bound, verdict)
		}
	}
	return code, nil
}

// runChild runs one workload in a child process with the parent's
// options, copies what it prints to echo (if not nil) and parses its last
// line. The child has ended when this returns.
func runChild(workload string, seed uint64, o options, echo io.Writer) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-tmp", o.tmp}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if echo != nil {
		_, _ = echo.Write(stdout) // a report that cannot be shown is still returned
	}
	var rep report
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &rep); jerr != nil {
		if err != nil {
			return rep, err
		}
		return rep, fmt.Errorf("%s: no result line: %w", workload, jerr)
	}
	return rep, nil // a child that exits 1 printed correct=false, which the caller reports
}
