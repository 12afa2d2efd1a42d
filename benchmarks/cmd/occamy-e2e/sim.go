package main

import (
	"crypto/sha256"
	"fmt"
	"runtime/metrics"
	"time"

	"occamy/internal/scenario"
)

// simRunner drives the in-process call path of the CLI: spec bytes in,
// canonical result document bytes out, one client.
type simRunner struct {
	jobs []job
	refs [][32]byte // reference digest per job, set by the warm-up pass

	// Traced passes only.
	counts  simCounts
	samples map[string][]byte // job kind → one result document, for the decode figure
}

// simCounts sums what the traced jobs' results reported.
type simCounts struct {
	jobs, events, recorderSamples      float64
	rx, dropped, expelled, ecn         float64
	timeouts, linkDrops, linkDups      float64
	loopSeconds, resultBytes           float64
	buildAlloc, loopAlloc, encodeAlloc float64
}

func newSimRunner(jobs []job, err error) (runner, error) {
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		jobs[i].ref = i
	}
	return &simRunner{jobs: jobs, refs: make([][32]byte, len(jobs)), samples: map[string][]byte{}}, nil
}

func (r *simRunner) lists(int) ([][]job, error) { return [][]job{r.jobs}, nil }

func (r *simRunner) do(c *client, j *job) ([32]byte, error) {
	var data []byte
	var err error
	if c.tr.enabled() {
		data, err = r.runTraced(c, j)
	} else {
		data, err = runSpec(j.body)
	}
	if err != nil {
		return [32]byte{}, err
	}
	d := sha256.Sum256(data)
	if r.refs[j.ref] == ([32]byte{}) {
		r.refs[j.ref] = d // the warm-up pass
	} else if d != r.refs[j.ref] {
		return d, fmt.Errorf("%s: result bytes differ from the warm-up's", j.kind)
	}
	return d, nil
}

// runSpec is the untraced job: the three calls cmd/occamy-scenario makes.
func runSpec(body []byte) ([]byte, error) {
	spec, err := scenario.ParseSpec(body)
	if err != nil {
		return nil, err
	}
	res, err := scenario.Run(spec)
	if err != nil {
		return nil, err
	}
	return res.EncodeJSON(true)
}

// heapAllocs reads the cumulative heap allocation counter without
// stopping the world; it lags by at most the spans the allocator has
// cached, which averages out over the jobs of a pass.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// runTraced is runSpec with a span around each phase. The run's own
// phases are cut from outside at the progress seam: the first sample
// fires before any event, and on a transport spec the last one that is
// not Final fires right before collection. A raw spec shorter than one
// 5 ms engine chunk gets a single sample, so there collection cannot be
// told from the loop and is counted with it.
func (r *simRunner) runTraced(c *client, j *job) ([]byte, error) {
	tr := c.tr
	child := func(name string, start, end time.Time) {
		tr.add(span{Job: c.job, Name: name}, start, end)
	}
	t0 := time.Now()
	spec, err := scenario.ParseSpec(j.body)
	if err != nil {
		return nil, err
	}
	call := time.Now()
	child("scenario.parse", t0, call)

	var first, last, final time.Time
	a0 := heapAllocs()
	var aFirst, aLast float64
	res, err := scenario.RunWithProgress(spec, nil, func(p scenario.RunProgress) {
		now := time.Now()
		switch {
		case p.Final:
			final = now
		case first.IsZero():
			first, aFirst = now, heapAllocs()
			fallthrough
		default:
			last, aLast = now, heapAllocs()
		}
	})
	if err != nil {
		return nil, err
	}
	ret := time.Now()
	if spec.Raw() {
		last, aLast = final, heapAllocs()
	}
	child("scenario.build", call, first)
	child("scenario.loop", first, last)
	child("scenario.collect", last, ret)

	aDoc := heapAllocs()
	doc, err := res.Doc(true)
	if err != nil {
		return nil, err
	}
	docEnd := time.Now()
	child("scenario.doc", ret, docEnd)
	data, err := doc.Encode()
	if err != nil {
		return nil, err
	}
	child("scenario.encode", docEnd, time.Now())

	n := &r.counts
	n.jobs++
	n.events += float64(res.Events)
	n.recorderSamples += float64(len(res.SampleTimes))
	n.rx += float64(res.Total.RxPackets)
	n.dropped += float64(res.Total.Drops())
	n.expelled += float64(res.Total.DropsExpelled)
	n.ecn += float64(res.Total.ECNMarked)
	for i := range res.Workloads {
		n.timeouts += float64(res.Workloads[i].Timeouts)
	}
	faults := res.LinkFaultTotals()
	n.linkDrops += float64(faults.Dropped)
	n.linkDups += float64(faults.Duplicated)
	n.loopSeconds += last.Sub(first).Seconds()
	n.resultBytes += float64(len(data))
	n.buildAlloc += aFirst - a0
	n.loopAlloc += aLast - aFirst
	n.encodeAlloc += heapAllocs() - aDoc
	if _, ok := r.samples[j.kind]; !ok {
		r.samples[j.kind] = data
	}
	return data, nil
}

func (r *simRunner) settle() (int, int) { return 0, 0 }

func (r *simRunner) close(bool) (int, int) { return 0, 0 }

func (r *simRunner) layers(m map[string]float64) {
	n := r.counts
	const mb = 1 << 20
	m["scenario.build_alloc_mb"] = ratio(n.buildAlloc, n.jobs) / mb
	m["scenario.loop_alloc_mb"] = ratio(n.loopAlloc, n.jobs) / mb
	m["scenario.encode_alloc_mb"] = ratio(n.encodeAlloc, n.jobs) / mb
	m["scenario.result_kb"] = ratio(n.resultBytes, n.jobs) / 1024
	m["sim.events_per_job"] = ratio(n.events, n.jobs)
	m["sim.events_per_s"] = ratio(n.events, n.loopSeconds)
	m["switchsim.drop_share"] = 100 * ratio(n.dropped, n.rx)
	m["switchsim.expelled_share"] = 100 * ratio(n.expelled, n.rx)
	m["switchsim.ecn_share"] = 100 * ratio(n.ecn, n.rx)
	m["switchsim.recorder_samples_per_job"] = ratio(n.recorderSamples, n.jobs)
	m["transport.timeouts_per_job"] = ratio(n.timeouts, n.jobs)
	m["linkfault.drops_per_job"] = ratio(n.linkDrops, n.jobs)
	m["linkfault.dups_per_job"] = ratio(n.linkDups, n.jobs)
	m["scenario.decode_ms"] = decodeKernel(r.samples)
}
