package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel sweep runner
//
// Every figure of the paper is a grid sweep: policy × load × size
// points, each an independent simulation with its own engine, network,
// and seeded RNG. RunGrid fans those points across a worker pool while
// keeping output deterministic: results are stored by input index, so a
// table assembled from them is byte-identical whether the sweep ran on
// one worker or many.
//
// Safety rests on run-isolation: a point's closure must not touch
// anything outside its own simulation (scenario.Run builds fresh policy
// state, engines, networks, and collectors per call). No simulation
// state crosses runs: even packet IDs come from a counter in the run's
// own packet pool.

// parallelism is the worker count used by RunGrid; 0 means GOMAXPROCS.
var parallelism atomic.Int32

// SetParallelism sets the number of concurrent simulations RunGrid may
// execute (the CLI -j flag). j <= 0 restores the default (GOMAXPROCS).
func SetParallelism(j int) {
	if j < 0 {
		j = 0
	}
	parallelism.Store(int32(j))
}

// Parallelism returns the effective RunGrid worker count.
func Parallelism() int {
	if j := int(parallelism.Load()); j > 0 {
		return j
	}
	return runtime.GOMAXPROCS(0)
}

// RunGrid evaluates run over every point, using up to Parallelism()
// workers, and returns the results in input order.
func RunGrid[P, R any](points []P, run func(P) R) []R {
	results := make([]R, len(points))
	j := Parallelism()
	if j > len(points) {
		j = len(points)
	}
	if j <= 1 {
		for i, p := range points {
			results[i] = run(p)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < j; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				results[i] = run(points[i])
			}
		}()
	}
	wg.Wait()
	return results
}
