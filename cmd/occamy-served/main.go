// occamy-served serves the scenario catalog over HTTP: submit any
// strict-JSON spec (the same files occamy-scenario export/run use),
// poll the job, fetch the canonical JSON result document or the
// occupancy trace CSV. Runs are memoized in a content-addressed cache —
// resubmitting a spec that has already been simulated (by anyone, at
// any time if -cache-dir persists) answers without re-simulating.
//
// With -shards it simulates nothing: it fronts those workers with the
// same API, placing each spec on its fingerprint's consistent-hash home
// shard (see internal/fleet), and restarting it loses only in-flight sweeps.
//
// Usage:
//
//	occamy-served [-addr :8080] [-workers N] [-cache-mb 256] [-cache-dir DIR]
//	occamy-served -shards http://w0:8080,http://w1:8080 [-addr :8080]
//	    [-rate 0] [-burst 0] [-sweep-cache-mb 64] [-point-timeout 10m]
//
//	curl localhost:8080/v1/scenarios
//	curl -X POST 'localhost:8080/v1/runs?name=incast-storm-256&scale=quick'
//	curl localhost:8080/v1/runs/r1           # w0.r1 through a router
//	curl localhost:8080/v1/runs/r1/trace.csv?stride=4
//	curl localhost:8080/v1/stats
//	occamy-scenario export mixed-load-90 > spec.json
//	curl -X POST --data-binary @spec.json localhost:8080/v1/runs
//	curl -X POST -d '{"name":"burst-absorb","axes":["policy.kind=dt,occamy"]}' \
//	    localhost:8080/v1/sweeps
//
// SIGINT/SIGTERM shut the server down gracefully: the listener stops
// accepting, in-flight HTTP requests drain, and a worker's
// Service.Close resolves every job (running simulations are canceled at
// their next engine chunk; nothing is orphaned mid-write to the
// persistent cache).
//
// See SERVICE.md for the endpoint and result-document reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	// Registers /debug/pprof/* on the default mux, which only the
	// -pprof-addr listener serves; the API muxes are custom.
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"occamy/internal/fleet"
	"occamy/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.String("shards", "", "comma-separated occamy-served base URLs: serve the fleet router over them instead of simulating")
	workers := flag.Int("workers", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
	cacheMB := flag.Int64("cache-mb", 256, "result-cache memory budget in MB")
	cacheDir := flag.String("cache-dir", "", "persist cached results to this directory (empty = memory only)")
	queueDepth := flag.Int("queue", 0, "maximum queued jobs (0 = 1024)")
	maxJobs := flag.Int("max-jobs", 0, "job-ledger bound; oldest finished jobs expire past it (0 = 4096)")
	rate := flag.Float64("rate", 0, "router: per-client admission rate in requests/second (0 = unlimited)")
	burst := flag.Float64("burst", 0, "router: per-client burst allowance (0 = max(1, rate))")
	sweepCacheMB := flag.Int64("sweep-cache-mb", 64, "router: aggregated-sweep result-cache budget in MB")
	pointTimeout := flag.Duration("point-timeout", 10*time.Minute, "router: per-point submit-to-done budget inside a sweep")
	maxSweep := flag.Int("max-sweep-points", 0, "maximum expanded grid points per sweep request (0 = 256)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight HTTP requests")
	logLevel := flag.String("log-level", "", "structured JSON logs on stderr at this level (debug, info, warn, error; empty = off)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	exit := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "occamy-served: "+format+"\n", args...)
		os.Exit(code)
	}
	// A flag the chosen mode would ignore is an error, not a no-op;
	// flag.Visit sees only the flags set on the command line.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"workers", "cache-mb", "cache-dir", "queue", "max-jobs"} {
		if set[name] && set["shards"] {
			exit(2, "-%s is a worker flag and cannot be combined with -shards", name)
		}
	}
	for _, name := range []string{"rate", "burst", "sweep-cache-mb", "point-timeout"} {
		if set[name] && !set["shards"] {
			exit(2, "-%s is a router flag and needs -shards", name)
		}
	}

	var logger *slog.Logger
	if *logLevel != "" && *logLevel != "off" {
		var l slog.Level
		if err := l.UnmarshalText([]byte(*logLevel)); err != nil {
			exit(2, "bad -log-level %q (want debug, info, warn, or error)", *logLevel)
		}
		logger = slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: l}))
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s (/debug/pprof/)", *pprofAddr)
			// Not fatal: a squatted debug port must not take the server down.
			log.Printf("pprof listener: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	// The stateless router has nothing to close; a worker's startup line
	// reports what service.New resolved, not the flags.
	var handler http.Handler
	closeMode := func() {}
	if set["shards"] {
		var urls []string
		for _, u := range strings.Split(*shards, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
		if len(urls) == 0 {
			exit(2, "-shards needs at least one occamy-served URL")
		}
		rt, err := fleet.NewRouter(fleet.Config{
			Workers:         urls,
			MaxSweepPoints:  *maxSweep,
			RatePerClient:   *rate,
			Burst:           *burst,
			SweepCacheBytes: *sweepCacheMB << 20,
			PointTimeout:    *pointTimeout,
			Logger:          logger,
		})
		if err != nil {
			exit(1, "%v", err)
		}
		handler = rt.Handler()
		log.Printf("occamy-served listening on %s (router over %d shards, rate=%.1f/s)", *addr, len(urls), *rate)
	} else {
		svc, err := service.New(service.Config{
			Workers:        *workers,
			QueueDepth:     *queueDepth,
			MaxJobs:        *maxJobs,
			MaxSweepPoints: *maxSweep,
			CacheBytes:     *cacheMB << 20,
			CacheDir:       *cacheDir,
			Logger:         logger,
		})
		if err != nil {
			exit(1, "%v", err)
		}
		handler, closeMode = svc.Handler(), svc.Close
		st := svc.Stats()
		log.Printf("occamy-served listening on %s (workers=%d, cache=%dMB, dir=%q)",
			*addr, st.Workers, st.Cache.Budget>>20, *cacheDir)
	}
	if err := run(*addr, handler, closeMode, *drain); err != nil {
		exit(1, "%v", err)
	}
}

// run owns the server lifecycle so every shutdown path — signal or
// listener error — goes through http.Server.Shutdown and then the
// mode's close, in that order. log.Fatal is deliberately absent: it
// would skip both, killing running jobs mid-simulation and losing cache
// write-through.
func run(addr string, handler http.Handler, closeMode func(), drain time.Duration) error {
	// Register the signal handler before the listener opens: a SIGTERM
	// arriving the instant the port is up must already be ours.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// Runs after the HTTP drain below, and while a second signal is
	// still ours rather than a hard kill.
	defer closeMode()

	srv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err // ListenAndServe never returns nil
	case <-ctx.Done():
	}

	log.Printf("occamy-served: shutting down (draining HTTP for up to %v)", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		// Stragglers past the budget are closed hard; jobs are still
		// resolved by the deferred close.
		log.Printf("occamy-served: HTTP drain: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
