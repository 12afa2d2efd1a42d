// occamy-loadgen replays a synthetic user population against one or
// more occamy-served instances and reports client-side SLOs
// (submit-to-done p50/p99/p999, throughput, cache hit ratio, refusal
// rate) next to each server's own GET /v1/stats view.
//
// The schedule is fully deterministic under -seed: arrivals (poisson or
// uniform), zipf-ranked scenario choices, scale mix, seeded spec
// mutations, and sweep bursts are all drawn from one seeded RNG before
// the first request fires.
//
// Usage:
//
//	occamy-loadgen [-targets http://localhost:8080] [-route rr|hash] \
//	    [-n 300] [-rate 50] [-process poisson] [-seed 1] \
//	    [-concurrency 32] [-zipf 1.3] [-scenarios a,b,c] \
//	    [-scales quick=0.95,full=0.05] [-mutate-every 7] \
//	    [-sweep-every 0] [-report FILE]
//
// -route=hash places each request on the consistent-hash home shard of
// its fingerprint (the same ring occamy-served -shards uses), so driving N
// workers directly reproduces a fronting router's placement; the report
// then carries a per-target breakdown of the shard skew.
//
// Threshold flags turn the run into a gate (exit 1 on violation):
//
//	occamy-loadgen -n 300 -max-p99 30s -min-hit-ratio 0.05 -max-refusal-rate 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"occamy/internal/loadgen"
	"occamy/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "occamy-loadgen:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("occamy-loadgen", flag.ExitOnError)
	targets := fs.String("targets", "http://localhost:8080", "comma-separated occamy-served base URLs")
	route := fs.String("route", "rr", "target placement: rr (round-robin) | hash (consistent hash by spec fingerprint, the occamy-served -shards ring)")
	n := fs.Int("n", 300, "total requests to schedule")
	rate := fs.Float64("rate", 50, "arrival rate, requests/second")
	process := fs.String("process", "poisson", "arrival process: poisson|uniform")
	seed := fs.Uint64("seed", 1, "schedule seed (same seed = same schedule)")
	concurrency := fs.Int("concurrency", 32, "client pool: max in-flight requests")
	zipfS := fs.Float64("zipf", 1.3, "zipf skew over the scenario catalog (>1)")
	scenarios := fs.String("scenarios", "", "comma-separated scenario names (empty = all exportable; first = hottest)")
	scales := fs.String("scales", "quick=1", "scale mix as weights, e.g. quick=0.95,full=0.05")
	mutateEvery := fs.Int("mutate-every", 7, "perturb the spec seed of every Nth request (0 = never)")
	sweepEvery := fs.Int("sweep-every", 0, "turn every Nth request into a sweep burst (0 = never)")
	poll := fs.Duration("poll", 5*time.Millisecond, "job status poll interval")
	timeout := fs.Duration("timeout", 120*time.Second, "per-request submit-to-done timeout")
	reportFile := fs.String("report", "", "also write the report as JSON to this file")
	maxP99 := fs.Duration("max-p99", 0, "fail if client p99 latency exceeds this (0 = unchecked)")
	minHitRatio := fs.Float64("min-hit-ratio", -1, "fail if cache hit ratio is below this (<0 = unchecked)")
	maxRefusalRate := fs.Float64("max-refusal-rate", -1, "fail if refusal rate exceeds this (<0 = unchecked)")
	maxErrors := fs.Int("max-errors", 0, "fail if request errors exceed this (<0 = unchecked)")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	mix, err := parseScaleMix(*scales)
	if err != nil {
		return err
	}
	cfg := loadgen.Config{
		Targets:      splitNonEmpty(*targets),
		Route:        *route,
		Requests:     *n,
		Rate:         *rate,
		Process:      *process,
		Seed:         *seed,
		Concurrency:  *concurrency,
		ZipfS:        *zipfS,
		Scenarios:    splitNonEmpty(*scenarios),
		ScaleMix:     mix,
		MutateEvery:  *mutateEvery,
		SweepEvery:   *sweepEvery,
		PollInterval: *poll,
		JobTimeout:   *timeout,
	}

	sched, err := loadgen.BuildSchedule(cfg)
	if err != nil {
		return err
	}
	last := sched[len(sched)-1]
	fmt.Fprintf(os.Stderr, "occamy-loadgen: %d requests over ~%.1fs against %s (seed=%d)\n",
		len(sched), last.At.Seconds(), strings.Join(cfg.Targets, ", "), cfg.Seed)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, cfg, sched)
	if err != nil {
		return err
	}

	fmt.Print(rep.Render())
	if *reportFile != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "occamy-loadgen: report written to %s\n", *reportFile)
	}

	violations := rep.Check(loadgen.Thresholds{
		MaxP99:         *maxP99,
		MinHitRatio:    *minHitRatio,
		MaxRefusalRate: *maxRefusalRate,
		MaxErrors:      *maxErrors,
	})
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "occamy-loadgen: threshold violated:", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d threshold(s) violated", len(violations))
	}
	return nil
}

// parseScaleMix parses "quick=0.95,full=0.05" (bare names weigh 1).
func parseScaleMix(s string) (map[scenario.Scale]float64, error) {
	mix := make(map[scenario.Scale]float64)
	for _, part := range splitNonEmpty(s) {
		name, weightStr, hasWeight := strings.Cut(part, "=")
		scale, err := scenario.ParseScale(name)
		if err != nil {
			return nil, err
		}
		w := 1.0
		if hasWeight {
			w, err = strconv.ParseFloat(weightStr, 64)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("bad scale weight %q", part)
			}
		}
		mix[scale] = w
	}
	return mix, nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
