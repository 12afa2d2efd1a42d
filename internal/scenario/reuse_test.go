package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// reuseSpecs are the catalog specs a run hands its substrate between: the
// two raw-injection entries, and transport runs on one switch and on a
// fabric, with and without link faults.
var reuseSpecs = []string{"quickstart", "burst-absorb", "duplicate-storm", "flaky-tor-incast", "leafspine-demo"}

// reuseJob is one run of a reuse sequence: a catalog entry at a scale,
// under a policy ("" keeps the entry's) and a spec seed (0 keeps it).
type reuseJob struct {
	name   string
	scale  Scale
	policy string
	seed   uint64
}

// reuseFabrics are fabric runs of other sizes, under their own policies,
// that the sequence interleaves with the reuse specs: each hands the next
// run a packet spare sized by a fabric it did not build, and a switch set
// of its own size — multiclass-fabric-drr's four two-class switches after
// a raw spec's one, and one after four when a raw spec follows it.
var reuseFabrics = []reuseJob{
	{"buffer-choking", ScaleFull, "", 0},
	{"wan-degraded-leafspine", ScaleFull, "", 0},
	{"incast-storm-256", ScaleQuick, "", 13},
	{"multiclass-fabric-drr", ScaleQuick, "", 0},
}

// reuseSequence runs every reuse spec at quick scale under dt, abm, occamy
// and pushout, and every reuse fabric, twice each, in an order shuffled by
// seed, with a transport run canceled after its first engine chunk
// between the two passes. Each run takes the engine slabs, cell and PD
// memories, packet free list and queue rings of whichever run finished
// before it, and the recorder chunks of that run's switch set; its
// document must be the one the same spec gave the first time.
func reuseSequence(t *testing.T, seed int64) {
	jobs := slices.Clone(reuseFabrics)
	for _, name := range reuseSpecs {
		for _, p := range []string{"dt", "abm", "occamy", "pushout"} {
			jobs = append(jobs, reuseJob{name, ScaleQuick, p, 0})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	first := map[reuseJob][]byte{}
	run := func(j reuseJob) []byte {
		sc, ok := Get(j.name)
		if !ok {
			t.Fatalf("scenario %q not registered", j.name)
		}
		spec := sc.SpecAt(j.scale)
		if j.policy != "" {
			spec.Policy.Kind = j.policy
		}
		if j.seed != 0 {
			spec.Seed = j.seed
		}
		doc, err := MustRun(spec).EncodeJSON(true)
		if err != nil {
			t.Fatalf("%+v: %v", j, err)
		}
		return doc
	}
	for pass := 0; pass < 2; pass++ {
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
		for _, j := range jobs {
			doc := run(j)
			if pass == 0 {
				first[j] = doc
			} else if !bytes.Equal(doc, first[j]) {
				t.Errorf("%+v: the second run's document differs from the first", j)
			}
		}
		if pass == 0 {
			sc, _ := Get("leafspine-demo")
			chunks := 0
			_, err := RunWithCancel(sc.SpecAt(ScaleQuick), func() bool { chunks++; return chunks > 1 })
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled run returned %v, want ErrCanceled", err)
			}
		}
	}
}

// TestReuseLeavesNoTrace: what one run hands the next changes no byte of
// the next run's document, whatever ran before it, a canceled run
// included.
func TestReuseLeavesNoTrace(t *testing.T) { reuseSequence(t, 1) }

// TestReuseLeavesNoTraceParallel is the same with two sequences contending
// for the spares at once; under -race it also checks the handoff.
func TestReuseLeavesNoTraceParallel(t *testing.T) {
	t.Parallel()
	for seed := int64(2); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			reuseSequence(t, seed)
		})
	}
}

// warmJobBytes is what a warm process allocates per parse -> run ->
// encode job of the named catalog entry at a scale: the least of three
// jobs after a warm-up, for two collections in a row may empty the
// encoder's sync.Pool, and the job that follows pays for its buffer.
// The jobs run on one P: a sync.Pool keeps an object put back on one P
// where a Get on another does not look, so on more the count would hang
// on where the scheduler placed the test.
func warmJobBytes(t *testing.T, name string, scale Scale) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sc, _ := Get(name)
	body, err := json.Marshal(sc.SpecAt(scale))
	if err != nil {
		t.Fatal(err)
	}
	job := func() {
		spec, err := ParseSpec(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MustRun(spec).EncodeJSON(true); err != nil {
			t.Fatal(err)
		}
	}
	job() // warm-up: the first run has no predecessor to reuse
	got := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		job()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	return got
}

// TestRunAllocBudget pins what a warm process allocates per job of the
// benchmark's short simulations: parse, run and encode burst-absorb at
// full scale. The returned document is ~17 KB of the budget; the rest is
// the recorder's exact copy of its series, the result and what the run
// builds that no earlier run could hand it. It read 94 488 bytes when the
// switch set passed whole to the next run, and 73 168 once trace series
// were int32 counts; the budget is 10 % over that.
func TestRunAllocBudget(t *testing.T) {
	allocBudget(t, "burst-absorb", ScaleFull, 79<<10)
}

// TestRunTransportAllocBudget pins the same for a transport run on a
// fabric, leafspine-demo at quick scale: hosts and the flow slab are built
// anew by every run, so what they allocate shows here. It read 944 808
// bytes alone when the switch set passed whole to the next run, 792 256
// once trace series were int32 counts, 625 560 once queues were linked
// through their packets, so NICs stopped growing rings (less after the
// reuse sequence, whose packet spare it takes), and 573 456 once a
// finished flow gave its slot back and tail rows shared one buffer; the
// budget is 10 % over the last.
func TestRunTransportAllocBudget(t *testing.T) {
	allocBudget(t, "leafspine-demo", ScaleQuick, 616<<10)
}

// TestFlowAllocBudget pins a warm mixed-load-90 job at quick scale, the
// benchmark's largest allocator among its long simulations: ~4 900 flows of
// background traffic beside an incast, on one switch, with at most ~275
// running at once. It read 4 728 424 to 4 782 224 bytes when the switch set
// passed whole to the next run, and 1 432 768 once a finished flow gave its
// slot back and tail rows shared one buffer; the budget is 10 % over that.
func TestFlowAllocBudget(t *testing.T) {
	allocBudget(t, "mixed-load-90", ScaleQuick, 1539<<10)
}

// TestGatedAllocBudget pins a warm incast-storm-256 job at quick scale, a
// gated run: it samples until its queries are answered, ~2 900 times
// against the ~1 000 its horizon implies, so a recorder that regrew its
// series, or reserved for the horizon, shows here. It read 1 228 000 bytes
// when series moved into recorder chunks (2 069 400 before), 997 816 once
// they were int32 counts, 585 376 once queues were linked through their
// packets, and 580 680 once a finished flow gave its slot back (its flows
// nearly all run at once, so few slots are reused); the budget is 10 %
// over the last.
func TestGatedAllocBudget(t *testing.T) {
	allocBudget(t, "incast-storm-256", ScaleQuick, 623<<10)
}

// allocBudget fails when a warm job of the named entry allocates more than
// budget bytes.
func allocBudget(t *testing.T, name string, scale Scale, budget uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	if got := warmJobBytes(t, name, scale); got > budget {
		t.Errorf("a warm %s job allocated %d bytes, budget %d", name, got, budget)
	} else {
		t.Logf("a warm %s job allocated %d bytes", name, got)
	}
}

// BenchmarkRunRaw is one warm quickstart run, the raw-injection path the
// short simulations take, with its allocations.
func BenchmarkRunRaw(b *testing.B) {
	sc, _ := Get("quickstart")
	spec := sc.SpecAt(ScaleFull)
	MustRun(spec) // warm-up, outside the timer
	b.ReportAllocs()
	for b.Loop() {
		MustRun(spec)
	}
}

// BenchmarkRunTransport is one warm leafspine-demo run at quick scale,
// the transport path the long simulations take, with its allocations.
func BenchmarkRunTransport(b *testing.B) {
	sc, _ := Get("leafspine-demo")
	spec := sc.SpecAt(ScaleQuick)
	MustRun(spec) // warm-up, outside the timer
	b.ReportAllocs()
	for b.Loop() {
		MustRun(spec)
	}
}
