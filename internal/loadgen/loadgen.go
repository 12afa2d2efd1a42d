// Package loadgen is the self-load-test layer: it replays a synthetic
// user population against one or more occamy-served instances and
// reports client-side SLOs (submit-to-done latency quantiles,
// throughput, cache hit ratio, refusal rate) next to the service's own
// GET /v1/stats view, so every scaling claim in the ROADMAP gets a
// measured before/after.
//
// The workload model is the one serving stacks actually face:
//
//   - open-loop arrivals — a Poisson (or uniform) process fires
//     submissions at a configured rate regardless of completions, so
//     queueing delay is measured, not hidden (no coordinated omission);
//   - zipf-distributed spec popularity over the catalog — a few hot
//     scenarios dominate, so the content-addressed cache sees the
//     realistic mix of hits, coalesces, and cold misses;
//   - seeded spec mutations — every Nth request perturbs the spec seed,
//     producing a fresh fingerprint (a guaranteed cache miss), which
//     keeps the workers busy instead of degenerating to 100% hits;
//   - sweep bursts — every Nth request is a small POST /v1/sweeps grid,
//     the bursty batch traffic of parameter-search clients;
//   - mixed scales — a weighted quick/full/paper mix models the spread
//     between interactive probes and evaluation-size runs.
//
// Everything is deterministic under Config.Seed: the full request
// schedule (arrival times, scenario choices, mutations, targets) is
// materialized up front by one seeded RNG, so two runs with the same
// seed submit byte-identical request sequences on identical timelines.
package loadgen

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"occamy/internal/fleet"
	"occamy/internal/scenario"
	"occamy/internal/service"
)

// Process names the arrival process.
const (
	// ProcessPoisson draws exponential interarrivals (open-loop M/G/k).
	ProcessPoisson = "poisson"
	// ProcessUniform spaces arrivals exactly 1/Rate apart.
	ProcessUniform = "uniform"
)

// Route names the target-placement policy.
const (
	// RouteRR round-robins requests across the targets (default).
	RouteRR = "rr"
	// RouteHash places each request on the consistent-hash home shard of
	// its content fingerprint — the same ring occamy-served -shards uses — so
	// driving N workers directly exercises the exact placement a fronting
	// router would produce (repeat specs land where their cache entry
	// lives).
	RouteHash = "hash"
)

// Config shapes a load test. The zero value is not runnable; call
// WithDefaults (Build and Run do it for you).
type Config struct {
	// Targets are the occamy-served base URLs ("http://host:port").
	Targets []string
	// Route picks the target per request: RouteRR (default) or
	// RouteHash.
	Route string
	// Requests is the total number of submissions to schedule.
	Requests int
	// Rate is the arrival rate in requests/second (default 50).
	Rate float64
	// Process is ProcessPoisson (default) or ProcessUniform.
	Process string
	// Seed makes the whole schedule deterministic (default 1).
	Seed uint64

	// Concurrency bounds the HTTP client pool: at most this many
	// requests are in flight (submitting or polling) at once
	// (default 32). Arrivals past the bound queue client-side and the
	// wait counts into their submit-to-done latency.
	Concurrency int

	// ZipfS is the zipf skew exponent over the scenario catalog, > 1;
	// larger is more skewed (default 1.3).
	ZipfS float64
	// Scenarios restricts the catalog draw; empty means every
	// exportable (non-figure) catalog entry. Popularity rank follows
	// slice order: Scenarios[0] is the hottest spec.
	Scenarios []string
	// ScaleMix weighs the run scales (default {"quick": 1}). Weights
	// need not sum to 1.
	ScaleMix map[scenario.Scale]float64

	// MutateEvery perturbs the spec seed of every Nth request (a
	// guaranteed fresh fingerprint → cache miss); 0 never mutates.
	MutateEvery int
	// SweepEvery turns every Nth request into a small sweep burst
	// (POST /v1/sweeps, a 2-point policy grid); 0 never sweeps.
	SweepEvery int

	// PollInterval is the job status poll cadence (default 5ms);
	// JobTimeout bounds one submission's submit-to-done wait
	// (default 120s).
	PollInterval time.Duration
	JobTimeout   time.Duration
}

// WithDefaults resolves every defaultable field.
func (c Config) WithDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 100
	}
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Process == "" {
		c.Process = ProcessPoisson
	}
	if c.Route == "" {
		c.Route = RouteRR
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 32
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.3
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = ExportableScenarios()
	}
	if len(c.ScaleMix) == 0 {
		c.ScaleMix = map[scenario.Scale]float64{scenario.ScaleQuick: 1}
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 5 * time.Millisecond
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 120 * time.Second
	}
	return c
}

// ExportableScenarios lists the catalog entries a load test can submit
// (figure harnesses have no spec body).
func ExportableScenarios() []string {
	var out []string
	for _, name := range scenario.Names() {
		if sc, ok := scenario.Get(name); ok && sc.Tables == nil {
			out = append(out, name)
		}
	}
	return out
}

// Request is one scheduled submission, fully materialized: the executor
// POSTs Body to Target+Path without consulting the RNG again.
type Request struct {
	// At is the arrival offset from the start of the run.
	At time.Duration
	// Target indexes Config.Targets.
	Target int
	// Path is "/v1/runs" or "/v1/sweeps".
	Path string
	// Body is the strict-JSON request body.
	Body []byte

	// Bookkeeping for the report (derived, not consulted on send).
	Scenario string
	Scale    scenario.Scale
	Mutated  bool
	Sweep    bool
}

// sweepAxes is the fixed 2-point grid a sweep burst submits: both
// buffer-management policies over whatever spec the zipf draw picked.
var sweepAxes = []scenario.SweepAxis{{Path: "policy.kind", Values: []string{"dt", "occamy"}}}

// BuildSchedule materializes the full deterministic request schedule
// from the config. The same (config, seed) always yields the same
// schedule, byte for byte — the determinism tests pin this.
func BuildSchedule(cfg Config) ([]Request, error) {
	cfg = cfg.WithDefaults()
	if len(cfg.Targets) == 0 {
		// Schedules can be built without targets (dry runs, tests);
		// Target then stays 0.
		cfg.Targets = []string{""}
	}
	if cfg.Process != ProcessPoisson && cfg.Process != ProcessUniform {
		return nil, fmt.Errorf("loadgen: unknown arrival process %q (poisson|uniform)", cfg.Process)
	}
	var ring *fleet.Ring
	if cfg.Route == RouteHash {
		var err error
		if ring, err = fleet.NewRing(cfg.Targets, 0); err != nil {
			return nil, err
		}
	} else if cfg.Route != RouteRR {
		return nil, fmt.Errorf("loadgen: unknown route policy %q (rr|hash)", cfg.Route)
	}
	specs := make(map[string]scenario.Scenario, len(cfg.Scenarios))
	for _, name := range cfg.Scenarios {
		sc, ok := scenario.Get(name)
		if !ok {
			return nil, fmt.Errorf("loadgen: unknown scenario %q", name)
		}
		if sc.Tables != nil {
			return nil, fmt.Errorf("loadgen: %s is a figure harness; it has no submittable spec", name)
		}
		specs[name] = sc
	}
	scales, weights := sortedScaleMix(cfg.ScaleMix)

	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Scenarios)-1))

	sched := make([]Request, 0, cfg.Requests)
	var at time.Duration
	for i := 0; i < cfg.Requests; i++ {
		// Draw every stochastic choice unconditionally and in a fixed
		// order, so the RNG stream (and thus the rest of the schedule)
		// does not depend on which branches a request takes.
		gap := 1 / cfg.Rate
		if cfg.Process == ProcessPoisson {
			gap = rng.ExpFloat64() / cfg.Rate
		}
		rank := int(zipf.Uint64())
		scalePick := rng.Float64()
		mutSeed := 1 + rng.Uint64()%(1<<62)

		at += time.Duration(gap * float64(time.Second))
		req := Request{
			At:       at,
			Target:   i % len(cfg.Targets),
			Scenario: cfg.Scenarios[rank],
			Scale:    pickScale(scales, weights, scalePick),
		}
		sp := specs[req.Scenario].SpecAt(req.Scale)
		if cfg.MutateEvery > 0 && (i+1)%cfg.MutateEvery == 0 {
			req.Mutated = true
			sp.Seed = mutSeed
		}
		body, err := sp.Marshal()
		if err != nil {
			return nil, fmt.Errorf("loadgen: marshaling %s: %w", req.Scenario, err)
		}
		if cfg.SweepEvery > 0 && (i+1)%cfg.SweepEvery == 0 {
			req.Sweep = true
			req.Path = "/v1/sweeps"
			req.Body, err = sweepBody(body, sweepAxes)
			if err != nil {
				return nil, err
			}
		} else {
			req.Path = "/v1/runs"
			req.Body = body
		}
		if ring != nil {
			// Hash placement keys on the same fingerprints the router
			// routes by (spec fingerprint for runs, sweep fingerprint for
			// sweeps), so repeats home onto the worker whose cache holds
			// them. Fingerprints don't consume RNG draws — the schedule
			// stays identical between rr and hash modes except for Target.
			key, err := sp.Fingerprint()
			if err != nil {
				return nil, fmt.Errorf("loadgen: fingerprinting %s: %w", req.Scenario, err)
			}
			if req.Sweep {
				if key, err = service.SweepFingerprint(sp, sweepAxes); err != nil {
					return nil, fmt.Errorf("loadgen: fingerprinting %s sweep: %w", req.Scenario, err)
				}
			}
			req.Target = ring.Lookup(key)
		}
		sched = append(sched, req)
	}
	return sched, nil
}

// sortedScaleMix flattens the weight map deterministically (map
// iteration order must never leak into the schedule).
func sortedScaleMix(mix map[scenario.Scale]float64) ([]scenario.Scale, []float64) {
	scales := make([]scenario.Scale, 0, len(mix))
	for s := range mix {
		scales = append(scales, s)
	}
	sort.Slice(scales, func(i, j int) bool { return scales[i] < scales[j] })
	weights := make([]float64, len(scales))
	var total float64
	for i, s := range scales {
		w := mix[s]
		if w < 0 {
			w = 0
		}
		weights[i] = w
		total += w
	}
	if total > 0 {
		for i := range weights {
			weights[i] /= total
		}
	}
	return scales, weights
}

// pickScale maps a uniform draw through the cumulative weights.
func pickScale(scales []scenario.Scale, weights []float64, u float64) scenario.Scale {
	var cum float64
	for i, w := range weights {
		cum += w
		if u < cum {
			return scales[i]
		}
	}
	return scales[len(scales)-1]
}
