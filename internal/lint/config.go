package lint

import "strings"

// Package allowlists
//
// The determinism contract (SCENARIOS.md) and the single-threaded event
// core are properties of specific packages, not of the whole module:
// the service edge legitimately reads wall clocks and spawns workers.
// This file is the single place that split is encoded — analyzers
// consult these sets instead of scattering per-file suppressions.
//
// Membership is by package base name ("sim" matches both
// "occamy/internal/sim" and a lint fixture's "sim"), which keeps the
// testdata fixtures honest: they exercise the very same matching the
// real tree gets.

// deterministicCore names the packages under the byte-identical-replay
// contract: given a seed, a run must not observe wall clocks, global
// randomness, or the environment. Edge packages (service, fleet,
// loadgen, metrics, trace, hw, bm) are deliberately absent — wall time
// is their job. So is experiments, now a leaf holding only the table
// formatter and the RunGrid fan-out seam: no simulation code is left
// in it for the contract to cover (the figure harnesses it used to hold
// are specs in scenario, which is listed).
var deterministicCore = map[string]bool{
	"core":      true,
	"sim":       true,
	"pkt":       true,
	"netsim":    true,
	"switchsim": true,
	"transport": true,
	"linkfault": true,
	"workload":  true,
	"scenario":  true,
}

// eventCore names the single-threaded discrete-event packages: all
// parallelism must flow through the sanctioned seams (experiments.
// RunGrid today, the parallel-DES shard boundary tomorrow), never
// through goroutines, channels, or locks inside the event loop itself.
var eventCore = map[string]bool{
	"core":      true,
	"sim":       true,
	"switchsim": true,
	"netsim":    true,
	"transport": true,
}

// IsDeterministicCore reports whether the package at pkgPath is under
// the determinism contract.
func IsDeterministicCore(pkgPath string) bool {
	return deterministicCore[pkgBase(pkgPath)]
}

// IsEventCore reports whether the package at pkgPath is part of the
// single-threaded event core.
func IsEventCore(pkgPath string) bool {
	return eventCore[pkgBase(pkgPath)]
}

func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerDetrand,
		AnalyzerMaporder,
		AnalyzerNogoroutine,
		AnalyzerAtomicfield,
		AnalyzerCommitlast,
	}
}
