package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// passLists builds a workload's timed-pass job lists without any server.
func passLists(t *testing.T, name string, seed uint64) [][]job {
	t.Helper()
	var lists [][]job
	var err error
	one := func(jobs []job, e error) { lists, err = [][]job{jobs}, e }
	switch name {
	case "sim-long":
		one(simLongJobs(seed, false))
	case "sim-short":
		one(simShortJobList(seed, false))
	case "serve-hit":
		small, large, e := hitSpecs(false)
		err = e
		for c := 0; c < hitClients && err == nil; c++ {
			jobs := serveHitJobs(seed, c, len(small), len(large), false)
			for i := range jobs {
				jobs[i].body = append(small, large...)[jobs[i].ref]
			}
			lists = append(lists, jobs)
		}
	case "fleet-miss":
		one(fleetMissJobs(seed, 0, false))
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return lists
}

func TestJobListsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, again, b := passLists(t, w.name, 7), passLists(t, w.name, 7), passLists(t, w.name, 8)
		if listDigest(a) != listDigest(again) {
			t.Errorf("%s: the same seed gave two different job lists", w.name)
		}
		if listDigest(a) == listDigest(b) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", w.name)
		}
	}
	warm, _ := fleetMissJobs(7, -1, false)
	if listDigest([][]job{warm}) == listDigest(passLists(t, "fleet-miss", 7)) {
		t.Error("fleet-miss: the warm-up and the first pass share fingerprints")
	}
}

// The p90 must fall inside one population: a list is either one
// population (no heavy jobs) or has a heavy family of 15–50 % of its
// jobs, and the mix is the same for every seed.
func TestHeavyFamilyHoldsTheP90(t *testing.T) {
	for _, w := range workloads {
		var shares []float64
		for seed := uint64(1); seed <= 3; seed++ {
			heavy, n := 0, 0
			for _, list := range passLists(t, w.name, seed) {
				for _, j := range list {
					n++
					if j.heavy {
						heavy++
					}
				}
			}
			shares = append(shares, float64(heavy)/float64(n))
		}
		if s := shares[0]; s != 0 && (s < 0.15 || s > 0.5) {
			t.Errorf("%s: heavy family is %.0f %% of the jobs, want 0 or 15–50 %%", w.name, 100*s)
		}
		if shares[0] != shares[1] || shares[1] != shares[2] {
			t.Errorf("%s: heavy share depends on the seed: %v", w.name, shares)
		}
	}
}

func TestApportion(t *testing.T) {
	counts := apportion(120, 16, 1.3)
	sum := 0
	for i, c := range counts {
		sum += c
		if i > 0 && c > counts[i-1] {
			t.Errorf("rank %d drawn %d times, more than rank %d (%d)", i, c, i-1, counts[i-1])
		}
	}
	if sum != 120 || counts[0] < 3*counts[3] {
		t.Errorf("apportion(120, 16, 1.3) = %v (sum %d)", counts, sum)
	}
}

func TestPercentilesAndBest(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p50, p90 := percentile(ten, 0.5), percentile(ten, 0.9); p50 != 5 || p90 != 9 {
		t.Errorf("nearest-rank p50, p90 of 1..10 = %v, %v, want 5, 9", p50, p90)
	}
	if percentile(nil, 0.9) != 0 || percentile([]float64{3}, 0.9) != 3 {
		t.Error("percentile of an empty or single sample")
	}
	if best([]float64{3, 1, 2}, false) != 1 || best([]float64{3, 1, 2}, true) != 3 {
		t.Error("best picks the minimum of a cost and the maximum of a rate")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{9, 1, 5}) != 5 {
		t.Error("median")
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31 as Python's statistics.quantiles gives", q1, q3)
	}
	if got := worsening(100, 90, true); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("a rate falling from 100 to 90 worsens by %v, want 0.1", got)
	}
}

// Two passes, the second disturbed: the time-based metrics take the
// undisturbed pass, the allocation metric the median.
func TestEndToEndMetricsTakeTheBestPass(t *testing.T) {
	quiet := passStats{wall: 2, cpu: 1, allocMB: 40, jobs: 10, lat: []float64{1, 1, 1, 1, 2, 2, 2, 2, 5, 6}}
	noisy := passStats{wall: 3, cpu: 1.5, allocMB: 44, jobs: 10, lat: []float64{2, 2, 2, 2, 3, 3, 3, 3, 8, 9}}
	m := endToEndMetrics(&outcome{setups: []float64{3, 1, 2}, passes: []passStats{noisy, quiet}})
	want := map[string]float64{"setup_s": 2, "job_ms_p50": 2, "job_ms_p90": 5, "jobs_per_s": 5, "cpu_ms_per_job": 100, "alloc_mb_per_job": 4.2}
	for name, v := range want {
		if math.Abs(m[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
	if got := hostNoisePct([]passStats{noisy, quiet}); math.Abs(got-25) > 1e-9 {
		t.Errorf("host noise = %v %%, want 25", got)
	}
}

func TestSelfTimesSumToTheRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Job: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Job: 1, Name: "service.post", Start: 10, End: 40},
		{ID: 3, Parent: 2, Job: 1, Name: "service.handler_post", Start: 15, End: 30},
		{ID: 4, Parent: 1, Job: 1, Name: "service.get", Start: 50, End: 90},
		{ID: 5, Job: 1, Name: "service.handler_get", Start: 20, End: 95, Detached: true},
	}
	self := selfTimes(spans)
	if self[1] != 30 || self[2] != 15 || self[3] != 15 || self[4] != 40 {
		t.Errorf("self times = %v", self)
	}
	if checks, failed := checkSelfTimes(spans); checks != 1 || failed != 0 {
		t.Errorf("checkSelfTimes = %d checks, %d failed", checks, failed)
	}
	spans[3].End = 120 // a child outliving its parent breaks the accounting
	if _, failed := checkSelfTimes(append(spans, span{ID: 6, Parent: 1, Job: 1, Start: 60, End: 80})); failed != 1 {
		t.Error("overlapping children went unnoticed")
	}
}

// TestSmoke runs every workload end to end at a tenth of its size with
// tracing on: set-up, warm-up, a reference pass, a traced pass, the
// kernels, the exit checks and the span accounting.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations and servers")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tmp := t.TempDir()
			var out bytes.Buffer
			code, err := run(options{workload: w.name, seed: 1, seconds: 2, smoke: true, tmp: tmp}, &out)
			if err != nil || code != 0 {
				t.Fatalf("exit %d, %v\n%s", code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("last line is not a report: %v", err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("report: %+v", rep)
			}
			for _, d := range perLayer {
				got, ok := rep.Metrics[d.name]
				if !ok || got.Unit != d.unit {
					t.Errorf("metric %s: %+v, present %t", d.name, got, ok)
				}
				inFleet := strings.HasPrefix(d.name, "fleet.")
				if inFleet && d.name != "fleet.worker_errors" && (got.Value != 0) != (w.name == "fleet-miss") {
					t.Errorf("%s = %v on %s", d.name, got.Value, w.name)
				}
			}
			if ev := rep.Metrics["sim.events_per_job"].Value; (ev == 0) != (w.name == "serve-hit" || w.name == "fleet-miss") {
				t.Errorf("sim.events_per_job = %v", ev)
			}
			data, err := os.ReadFile(filepath.Join(tmp, "spans-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 {
				t.Fatalf("span file: %v, %d spans", err, len(file.Spans))
			}
			if checks, failed := checkSelfTimes(file.Spans); checks == 0 || failed != 0 {
				t.Errorf("span file: %d of %d jobs' self times do not sum to the root span", failed, checks)
			}
		})
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the program's tables
// identical.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark's directory")
	}
	type decl struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []decl
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := file.Workloads[i]; d.Name != w.name || d.Why != w.why || len(d.Why) > 200 {
			t.Errorf("workload %d: %q declared, %q in the program (why: %d chars)", i, d.Name, w.name, len(d.Why))
		}
	}
	same := func(kind string, decls []decl, defs []metricDef, bounded bool) {
		if len(decls) != len(defs) {
			t.Fatalf("%s: %d declared, %d in the program", kind, len(decls), len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			got := decls[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != better || (bounded && got.Bound != d.bound) {
				t.Errorf("%s %d: declared %+v, program has %+v", kind, i, got, d)
			}
			if len(d.name) > 64 || len(d.unit) > 16 {
				t.Errorf("%s: name or unit too long", d.name)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}
