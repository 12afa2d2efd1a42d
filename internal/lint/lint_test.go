package lint_test

import (
	"testing"

	"occamy/internal/lint"
	"occamy/internal/lint/linttest"
)

// Each analyzer is exercised against one fixture package holding its
// true positives (with `want` expectations) and, where the rule is
// scoped, an "edge" package proving the false-positive guard: the same
// constructs outside the scoped packages draw no diagnostics.

func TestDetrand(t *testing.T) {
	linttest.Run(t, "testdata", lint.AnalyzerDetrand, "detrand/sim", "detrand/edge", "detrand/scenario")
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, "testdata", lint.AnalyzerMaporder, "maporder/a")
}

func TestNogoroutine(t *testing.T) {
	linttest.Run(t, "testdata", lint.AnalyzerNogoroutine, "nogoroutine/netsim", "nogoroutine/edge")
}

func TestAtomicfield(t *testing.T) {
	linttest.Run(t, "testdata", lint.AnalyzerAtomicfield, "atomicfield/a")
}

func TestCommitlast(t *testing.T) {
	linttest.Run(t, "testdata", lint.AnalyzerCommitlast, "commitlast/a")
}

// TestPackageScoping pins the allowlist matching the fixtures rely on:
// base-name membership, so testdata fixture paths and real module
// paths trigger identically.
func TestPackageScoping(t *testing.T) {
	cases := []struct {
		path       string
		det, event bool
	}{
		{"occamy/internal/sim", true, true},
		{"sim", true, true},
		{"occamy/internal/scenario", true, false},
		{"occamy/internal/linkfault", true, false},
		{"occamy/internal/service", false, false},
		{"occamy/internal/fleet", false, false},
		{"occamy/internal/loadgen", false, false},
		{"occamy/internal/metrics", false, false},
		{"edge", false, false},
	}
	for _, c := range cases {
		if got := lint.IsDeterministicCore(c.path); got != c.det {
			t.Errorf("IsDeterministicCore(%q) = %v, want %v", c.path, got, c.det)
		}
		if got := lint.IsEventCore(c.path); got != c.event {
			t.Errorf("IsEventCore(%q) = %v, want %v", c.path, got, c.event)
		}
	}
}
