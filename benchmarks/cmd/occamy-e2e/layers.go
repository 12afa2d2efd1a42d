package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"occamy/internal/bm"
	"occamy/internal/core"
	"occamy/internal/experiments"
	"occamy/internal/fleet"
	"occamy/internal/pkt"
	"occamy/internal/scenario"
	"occamy/internal/service"
	"occamy/internal/sim"
	"occamy/internal/switchsim"
)

// spanLayers derives the span-based per-layer figures: per job, the time
// spent in spans of one name is summed, and the figure is the median of
// that over the jobs that have such a span.
func spanLayers(spans []span, m map[string]float64) {
	perJob := map[string]map[int]float64{} // span name → job → ms
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if perJob[s.Name] == nil {
			perJob[s.Name] = map[int]float64{}
		}
		perJob[s.Name][s.Job] += s.ms()
	}
	med := func(name string) float64 {
		vs := make([]float64, 0, len(perJob[name]))
		for _, v := range perJob[name] {
			vs = append(vs, v)
		}
		slices.Sort(vs) // map order must not reach the summation order
		return median(vs)
	}
	for metric, name := range map[string]string{
		"scenario.build_ms":       "scenario.build",
		"scenario.loop_ms":        "scenario.loop",
		"scenario.collect_ms":     "scenario.collect",
		"scenario.doc_ms":         "scenario.doc",
		"scenario.encode_ms":      "scenario.encode",
		"service.post_ms":         "service.post",
		"service.get_ms":          "service.get",
		"service.handler_post_ms": "service.handler_post",
		"service.handler_get_ms":  "service.handler_get",
	} {
		m[metric] = med(name)
	}
	if len(perJob["scenario.parse"]) > 0 {
		m["scenario.parse_ms"] = med("scenario.parse")
	}

	// Per job kind, and the share of a simulation job that is not the
	// event loop.
	kindMs := map[string][]float64{}
	var jobMs, fixedMs float64
	sweepJobs := map[int]bool{}
	for _, s := range spans {
		switch {
		case s.Name == "job":
			kindMs[s.Kind] = append(kindMs[s.Kind], s.ms())
			if len(perJob["scenario.loop"]) > 0 {
				jobMs += s.ms()
			}
			if s.Kind == "sweep" {
				sweepJobs[s.Job] = true
			}
		case s.Name == "scenario.build", s.Name == "scenario.collect", s.Name == "scenario.doc", s.Name == "scenario.encode":
			fixedMs += s.ms()
		}
	}
	m["scenario.fixed_share"] = 100 * ratio(fixedMs, jobMs)
	for _, k := range simLongKinds {
		m["scenario.job_ms."+k.label()] = median(kindMs[k.label()])
	}
	m["fleet.single_ms"] = median(kindMs["single"])
	m["fleet.sweep_ms"] = median(kindMs["sweep"])

	// The router hop: a router span that proxied to a worker, minus the
	// worker span inside it. Worker calls per sweep are the detached
	// worker spans the sweep's aggregator caused.
	var hops []float64
	sweepCalls := 0.0
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "service.handler") {
			continue
		}
		if p, ok := byID[s.Parent]; ok && strings.HasPrefix(p.Name, "fleet.router") {
			hops = append(hops, p.ms()-s.ms())
		}
		if s.Detached && sweepJobs[s.Job] {
			sweepCalls++
		}
	}
	m["fleet.hop_ms"] = median(hops)
	m["fleet.worker_calls_per_sweep"] = ratio(sweepCalls, float64(len(sweepJobs)))
}

// selfTable sums self time by span name over all jobs, as a share of
// the jobs' total time, for the printed profile.
func selfTable(spans []span) []string {
	self := selfTimes(spans)
	byName := map[string]int64{}
	var total int64
	for _, s := range spans {
		if s.Detached {
			continue
		}
		byName[s.Name] += self[s.ID]
		total += self[s.ID]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		if byName[names[a]] != byName[names[b]] {
			return byName[names[a]] > byName[names[b]]
		}
		return names[a] < names[b]
	})
	rows := make([]string, 0, len(names))
	for _, n := range names {
		label := n
		if n == "job" {
			label = "job (harness: digest, checks)"
		}
		rows = append(rows, fmt.Sprintf("  %-34s %9.1f ms  %5.1f %%", label, float64(byName[n])/1e6, 100*ratio(float64(byName[n]), float64(total))))
	}
	return rows
}

// Kernels: small loops that drive one layer's public functions directly.
// Each reports the best of three repetitions, in smoke mode at a
// hundredth of the size.

func kernelSize(n int, smoke bool) int {
	if smoke {
		return max(n/100, 10)
	}
	return n
}

// bestOf3 returns the fastest of three timings of fn, per operation.
func bestOf3(ops int, unit time.Duration, fn func()) float64 {
	var runs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		fn()
		runs = append(runs, float64(time.Since(t0))/float64(unit)/float64(ops))
	}
	return best(runs, false)
}

// parseKernel times ParseSpec and Spec.Fingerprint over the specs of a
// job list, one measurement per job, and returns the medians in ms.
func parseKernel(lists [][]job) (parseMs, fingerprintMs float64) {
	var ps, fs []float64
	for _, list := range lists {
		for _, j := range list {
			if j.sweep || len(ps) >= 200 {
				continue
			}
			t0 := time.Now()
			spec, err := scenario.ParseSpec(j.body)
			t1 := time.Now()
			if err != nil {
				continue
			}
			if _, err := spec.Fingerprint(); err != nil {
				continue
			}
			ps, fs = append(ps, float64(t1.Sub(t0))/1e6), append(fs, float64(time.Since(t1))/1e6)
		}
	}
	return median(ps), median(fs)
}

// decodeKernel times DecodeResultDoc on one result document per job
// kind and returns the median in ms.
func decodeKernel(samples map[string][]byte) float64 {
	kinds := make([]string, 0, len(samples))
	for k := range samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var ms []float64
	for _, k := range kinds {
		ms = append(ms, bestOf3(1, time.Millisecond, func() {
			if _, err := scenario.DecodeResultDoc(samples[k]); err != nil {
				panic(err) // the document was just encoded by this build
			}
		}))
	}
	return median(ms)
}

// rescheduler is a sim.Handler that schedules itself again until the
// shared budget is spent.
type rescheduler struct {
	eng    *sim.Engine
	budget *int
	period sim.Duration
}

func (h *rescheduler) OnEvent(any) {
	if *h.budget > 0 {
		*h.budget--
		h.eng.AfterEvent(h.period, h, nil)
	}
}

// simKernels measures the engine alone: ns per event with 64
// self-rescheduling handlers in the heap, and ns per timer armed and
// cancelled.
func simKernels(m map[string]float64, smoke bool) {
	events := kernelSize(2_000_000, smoke)
	m["sim.ns_per_event"] = bestOf3(events, time.Nanosecond, func() {
		eng := sim.NewEngine()
		budget := events
		for i := 0; i < 64; i++ {
			h := &rescheduler{eng: eng, budget: &budget, period: sim.Duration(100 + i)}
			eng.AfterEvent(h.period, h, nil)
		}
		eng.Run()
	})
	timers := kernelSize(1_000_000, smoke)
	m["sim.timer_churn_ns"] = bestOf3(timers, time.Nanosecond, func() {
		eng := sim.NewEngine()
		for i := 0; i < timers; i++ {
			eng.AfterTimer(1000, func() {}).Stop()
			if eng.Pending() > 1024 {
				eng.RunFor(10)
			}
		}
		eng.Run()
	})
}

// switchKernels forwards packets through one four-port switch under an
// admission-only policy and two preemptive ones.
func switchKernels(m map[string]float64, smoke bool) {
	pkts := kernelSize(500_000, smoke)
	occamy := core.Config{Alpha: 8}
	for _, k := range []struct {
		name   string
		policy func() bm.Policy
		occ    *core.Config
	}{
		{"dt", func() bm.Policy { return bm.NewDT(1) }, nil},
		{"occamy", func() bm.Policy { return core.New(occamy) }, &occamy},
		{"pushout", func() bm.Policy { return core.NewPushout() }, nil},
	} {
		m["switchsim.fwd_ns_per_pkt."+k.name] = bestOf3(pkts, time.Nanosecond, func() {
			eng := sim.NewEngine()
			sw := switchsim.New("kernel", eng, switchsim.Config{
				Ports: 4, ClassesPerPort: 2, BufferBytes: 1 << 20,
				Policy: k.policy(), Occamy: k.occ, Scheduler: switchsim.SchedDRR,
			})
			pool := pkt.NewPool()
			for i := 0; i < 4; i++ {
				sw.AttachPort(i, 100e9, 0, pool.Put)
			}
			sw.DropHook = func(p *pkt.Packet, _ int, _ switchsim.DropReason) { pool.Put(p) }
			sw.SetRouter(func(p *pkt.Packet) int { return int(p.Dst) })
			for i := 0; i < pkts; i++ {
				p := pool.Get()
				p.ID, p.Dst, p.Size, p.Priority = uint64(i+1), pkt.NodeID(i&3), 1000, i&1
				sw.Receive(p)
				if i&1023 == 0 {
					eng.RunFor(100 * sim.Microsecond)
				}
			}
			eng.Run()
		})
	}
}

// sweepSpeedup runs an eight-point quick sweep with one and with two
// grid workers, on two scheduler threads, and returns wall(j=1)/wall(j=2).
func sweepSpeedup(smoke bool) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sc, _ := scenario.Get("buffer-choking")
	axes := []scenario.SweepAxis{
		{Path: "policy.kind", Values: []string{"occamy", "dt"}},
		{Path: "policy.alpha", Values: []string{"1", "2", "4", "8"}},
	}
	if smoke {
		axes = axes[:1]
	}
	wall := func(j int) float64 {
		experiments.SetParallelism(j)
		defer experiments.SetParallelism(0)
		return bestOf3(1, time.Millisecond, func() {
			if _, err := scenario.RunSweep(sc.SpecAt(scenario.ScaleQuick), axes); err != nil {
				panic(err) // a catalog spec and fixed axes
			}
		})
	}
	return ratio(wall(1), wall(2))
}

// hitKernels times, on a service whose cache holds the spec, a direct
// Submit (fingerprint, cache probe, ledger entry) and a bare cache Get.
func hitKernels(svc *service.Service, body []byte, smoke bool) (submitUs, getUs float64) {
	spec, err := scenario.ParseSpec(body)
	if err != nil {
		return 0, 0
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return 0, 0
	}
	n := kernelSize(2000, smoke)
	submitUs = bestOf3(n, time.Microsecond, func() {
		for i := 0; i < n; i++ {
			if st, err := svc.Submit(spec); err != nil || !st.Cached {
				panic(fmt.Sprintf("cached spec was not a hit: %v", err))
			}
		}
	})
	n = kernelSize(200_000, smoke)
	getUs = bestOf3(n, time.Microsecond, func() {
		for i := 0; i < n; i++ {
			if svc.Cache().Get(fp) == nil {
				panic("cached fingerprint missing")
			}
		}
	})
	return submitUs, getUs
}

// cachePutKernels times Cache.Put of a 200 KB payload under fresh keys,
// in memory and with a persistence directory.
func cachePutKernels(dir string, smoke bool) (memUs, dirUs float64) {
	payload := make([]byte, 200<<10)
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	n := kernelSize(200, smoke) // 40 MB per repetition on disk
	put := func(cacheDir string) float64 {
		round := 0
		return bestOf3(n, time.Microsecond, func() {
			cache, err := service.NewCache(missCacheBytes, cacheDir)
			if err != nil {
				panic(err)
			}
			round++
			for i := 0; i < n; i++ {
				cache.Put(fmt.Sprintf("sha256:%04d%060d", round, i), payload)
			}
		})
	}
	memUs = put("")
	kdir := filepath.Join(dir, "put-kernel")
	dirUs = put(kdir)
	_ = os.RemoveAll(kdir) // the instance directory is removed at close anyway
	return memUs, dirUs
}

// ringKernel times Ring.Lookup over a two-worker ring.
func ringKernel(smoke bool) float64 {
	ring, err := fleet.NewRing([]string{"http://worker-0", "http://worker-1"}, 0)
	if err != nil {
		return 0
	}
	n := kernelSize(1_000_000, smoke)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("sha256:%064x", i*2654435761)
	}
	sink := 0
	ns := bestOf3(n, time.Nanosecond, func() {
		for i := 0; i < n; i++ {
			sink += ring.Lookup(keys[i&255])
		}
	})
	if sink < 0 {
		return 0
	}
	return ns
}
