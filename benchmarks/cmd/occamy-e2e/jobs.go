package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"occamy/internal/scenario"
)

// job is one request: the bytes a client sends, and what the harness
// needs to check the reply. The program under test sees only body.
type job struct {
	kind  string // label for per-kind figures, e.g. "incast-storm-256.occamy"
	heavy bool   // member of the workload's heavy family, where the p90 falls
	sweep bool   // body is a POST /v1/sweeps request, not a spec
	ref   int    // index of the reference digest the result must equal
	body  []byte
}

// Every pass of a workload runs the same multiset of job kinds whatever
// the seed: simulated cost varies by ±30 % with a transport spec's own
// seed, so drawing the mix would measure the draw and not the code. The
// benchmark seed decides the order of the jobs, and the spec seed
// wherever that changes the result bytes but not the work (the raw
// cbr/burst specs, which use no random numbers).

// rng returns the generator for one purpose (stream) of a benchmark seed.
// It is the standard library's, so a change to the repository's own
// generator cannot change the benchmark's inputs.
func rng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// simKind is one sim-long job kind: a catalog entry at a scale, with the
// policy and spec seed overridden.
type simKind struct {
	scenario string
	scale    scenario.Scale
	policy   string
	seed     uint64
	heavy    bool
}

func (k simKind) label() string {
	if k.policy == "" {
		return k.scenario
	}
	return k.scenario + "." + k.policy
}

// specBytes renders a catalog entry as the strict-JSON spec a client
// would submit.
func specBytes(name string, scale scenario.Scale, policy string, seed uint64) ([]byte, error) {
	sc, ok := scenario.Get(name)
	if !ok || sc.Tables != nil {
		return nil, fmt.Errorf("catalog has no spec %q", name)
	}
	spec := sc.SpecAt(scale)
	if policy != "" {
		spec.Policy.Kind = policy
	}
	spec.Seed = seed
	return spec.Marshal()
}

// shrink keeps a tenth of a list (at least floor jobs) for -smoke.
func shrink(n, floor int, smoke bool) int {
	if !smoke {
		return n
	}
	return max(n/10, floor)
}

// simLongJobs is the sim-long pass: the ten kinds once each, in seeded
// order.
func simLongJobs(seed uint64, smoke bool) ([]job, error) {
	jobs := make([]job, 0, len(simLongKinds))
	for _, k := range simLongKinds {
		body, err := specBytes(k.scenario, k.scale, k.policy, k.seed)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{kind: k.label(), heavy: k.heavy, body: body})
	}
	if smoke {
		// The cheapest light job and one heavy one.
		jobs = []job{jobs[0], jobs[len(jobs)-1]}
	}
	return shuffled(jobs, rng(seed, 1)), nil
}

// Raw cbr/burst scenarios: ~12–13 k events, a 2–4 ms run and a ~120 KB
// document, whatever the spec seed.
var (
	smallScenarios = []string{"quickstart", "burst-absorb"}
	shortPolicies  = []string{"occamy", "dt", "pushout", "abm"}
)

const simShortJobs = 400

// simShortJobList is the sim-short pass: the two small scenarios
// alternating, cycling the four policies, each with its own spec seed.
func simShortJobList(seed uint64, smoke bool) ([]job, error) {
	r := rng(seed, 2)
	n := shrink(simShortJobs, 8, smoke)
	jobs := make([]job, 0, n)
	for i := 0; i < n; i++ {
		name, policy := smallScenarios[i%2], shortPolicies[(i/2)%4]
		body, err := specBytes(name, scenario.ScaleFull, policy, 1+r.Uint64N(1<<40))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{kind: name + "." + policy, body: body})
	}
	return shuffled(jobs, r), nil
}

// serve-hit population: a small-document family (~120 KB) and a
// large-document one (190–390 KB) whose members are the quick-scale
// transport scenarios.
var largeScenarios = []string{"leafspine-demo", "buffer-choking", "degraded-leafspine", "wan-degraded-leafspine"}

const (
	hitSmallSpecs    = 32 // 2 scenarios × 2 policies × 8 seeds
	hitLargeSpecs    = 16 // 4 scenarios × 2 policies × 2 seeds
	hitJobsPerClient = 600
	hitLargeShare    = 0.20
	hitZipf          = 1.3
)

// hitSpecs is the prefilled population, each family ranked so that
// neighbouring ranks are different scenarios.
func hitSpecs(smoke bool) (small, large [][]byte, err error) {
	family := func(names []string, scale scenario.Scale, n int) ([][]byte, error) {
		if smoke {
			n = 4
		}
		var out [][]byte
		for i := 0; i < n; i++ {
			variant := i / len(names) // policy alternates, then the seed advances
			body, err := specBytes(names[i%len(names)], scale, []string{"occamy", "dt"}[variant%2], uint64(1+variant/2))
			if err != nil {
				return nil, err
			}
			out = append(out, body)
		}
		return out, nil
	}
	if small, err = family(smallScenarios, scenario.ScaleFull, hitSmallSpecs); err != nil {
		return nil, nil, err
	}
	large, err = family(largeScenarios, scenario.ScaleQuick, hitLargeSpecs)
	return small, large, err
}

// apportion splits total draws over n ranks in proportion to the
// zipf(s) weights 1/(rank+1)^s by largest remainder, so the popularity
// skew is exact and the same for every seed.
func apportion(total, n int, s float64) []int {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := total
	for i := range w {
		exact := float64(total) * w[i] / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// serveHitJobs is one client's serve-hit pass: 80 % of its jobs on the
// small family and 20 % on the large one, zipf(1.3) over the specs of a
// family, in seeded order. ref indexes small specs first, then large.
func serveHitJobs(seed uint64, client int, nSmall, nLarge int, smoke bool) []job {
	n := shrink(hitJobsPerClient, 20, smoke)
	nl := int(math.Round(hitLargeShare * float64(n)))
	var jobs []job
	for rank, c := range apportion(n-nl, nSmall, hitZipf) {
		for ; c > 0; c-- {
			jobs = append(jobs, job{kind: "small", ref: rank})
		}
	}
	for rank, c := range apportion(nl, nLarge, hitZipf) {
		for ; c > 0; c-- {
			jobs = append(jobs, job{kind: "large", heavy: true, ref: nSmall + rank})
		}
	}
	return shuffled(jobs, rng(seed, 3+uint64(client)))
}

const (
	missJobs       = 150
	missSweepShare = 0.20
)

var missAxes = []string{"policy.kind=occamy,dt", "policy.alpha=1,4"}

// fleetMissJobs is one fleet-miss pass: 80 % single small runs and 20 %
// four-point sweeps, every spec seed drawn fresh from (seed, pass) so no
// fingerprint has been seen before. pass −1 is the warm-up.
func fleetMissJobs(seed uint64, pass int, smoke bool) ([]job, error) {
	r := rng(seed, 1000+uint64(pass+1))
	n := shrink(missJobs, 10, smoke)
	ns := int(math.Round(missSweepShare * float64(n)))
	jobs := make([]job, 0, n)
	for i := 0; i < n; i++ {
		name := smallScenarios[i%2]
		// 2^40 spec seeds per draw: a repeat within a run is out of reach.
		spec, err := specBytes(name, scenario.ScaleFull, "", 1+r.Uint64N(1<<40))
		if err != nil {
			return nil, err
		}
		if i >= n-ns {
			body, err := json.Marshal(map[string]any{"spec": json.RawMessage(spec), "axes": missAxes})
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job{kind: "sweep", heavy: true, sweep: true, body: body})
			continue
		}
		jobs = append(jobs, job{kind: "single", body: spec})
	}
	return shuffled(jobs, r), nil
}

func shuffled(jobs []job, r *rand.Rand) []job {
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// listDigest identifies the job lists of a pass: same seed, same digest.
func listDigest(lists [][]job) [32]byte {
	h := sha256.New()
	for c, list := range lists {
		for _, j := range list {
			fmt.Fprintf(h, "%d %s %t %t %d %d\n", c, j.kind, j.heavy, j.sweep, j.ref, len(j.body))
			h.Write(j.body)
		}
	}
	return [32]byte(h.Sum(nil))
}
